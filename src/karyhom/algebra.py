"""Finite-dimensional k-ary Lie algebras over Q with integer structure constants.

An algebra is given by its bracket on basis elements.  Antisymmetry is
built into the storage: brackets are kept only on strictly increasing
index tuples, and evaluation at any other tuple routes through the sign
of the sorting permutation.  The generalized (Filippov) Jacobi identity

    [[x_1,...,x_k], y_2,...,y_k]
        = sum_i [x_1,...,[x_i, y_2,...,y_k],...,x_k]

is not assumed; `check_jacobi` verifies it on every basis-tuple pair
whose residual can be nonzero, which suffices by multilinearity.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import comb, lcm

from .errors import InputError, LoadError, ResourceCapError
from .matrices import SparseIntMatrix, kernel_basis, rank, row_basis
from .util import sort_with_sign

DEFAULT_SIZE_CAP = 10**6


class KaryAlgebra:
    """A k-ary algebra on an ordered basis.

    brackets maps strictly increasing k-tuples of basis indices to sparse
    integer vectors {index: coefficient}; absent tuples bracket to zero.
    weights, when present, give every basis element an integer vector in
    Z^r such that brackets are weight-additive.

    An algebra is immutable after construction: nothing may change its
    brackets or weights.  Its chain layout (`chains.ChainLayout.of`),
    with every boundary rank computed so far, is kept on the algebra
    and shared by all callers.
    """

    __slots__ = ("arity", "dim", "labels", "brackets", "weights", "_chain_layout")

    def __init__(self, arity, dim, labels, brackets, weights=None):
        if arity < 2:
            raise InputError(f"arity must be at least 2, got {arity}")
        if dim < 1:
            raise InputError(f"dimension must be positive, got {dim}")
        labels = tuple(labels)
        if len(labels) != dim:
            raise InputError(f"expected {dim} labels, got {len(labels)}")
        self.arity = arity
        self.dim = dim
        self.labels = labels

        stored = {}
        for args, vec in brackets.items():
            args = tuple(args)
            if len(args) != arity:
                raise InputError(f"bracket key {args} does not have {arity} entries")
            if any(not 0 <= i < dim for i in args):
                raise InputError(f"bracket key {args} out of range")
            if any(a >= b for a, b in zip(args, args[1:])):
                raise InputError(f"bracket key {args} is not strictly increasing")
            vec = {int(i): int(c) for i, c in vec.items() if c}
            if not vec:
                raise InputError(f"bracket {args} stores a zero vector")
            if any(not 0 <= i < dim for i in vec):
                raise InputError(f"bracket {args} has out-of-range output indices")
            stored[args] = vec
        self.brackets = stored

        if weights is not None:
            weights = {int(i): tuple(int(x) for x in w) for i, w in weights.items()}
            if sorted(weights) != list(range(dim)):
                raise InputError("weights must cover every basis index exactly once")
            ranks = {len(w) for w in weights.values()}
            if len(ranks) != 1:
                raise InputError("weight vectors must share a common length")
            for args, vec in stored.items():
                total = tuple(map(sum, zip(*(weights[i] for i in args))))
                for out in vec:
                    if weights[out] != total:
                        raise InputError(
                            f"bracket {args} is not weight-additive at output {out}"
                        )
        self.weights = weights
        self._chain_layout = None

    # -- evaluation ---------------------------------------------------

    def bracket(self, indices):
        """Bracket of basis elements, as a sparse integer vector.

        Accepts any k-tuple of basis indices; repeated indices give the
        zero vector, unsorted tuples pick up the permutation sign.
        """
        indices = tuple(indices)
        if len(indices) != self.arity:
            raise InputError(
                f"bracket needs {self.arity} arguments, got {len(indices)}"
            )
        if any(not 0 <= i < self.dim for i in indices):
            raise InputError(f"basis index out of range in {indices}")
        key, sign = sort_with_sign(indices)
        if sign == 0:
            return {}
        vec = self.brackets.get(key)
        if not vec:
            return {}
        if sign == 1:
            return dict(vec)
        return {i: -c for i, c in vec.items()}

    def bracket_with_vector(self, vec, rest):
        """Bracket [v, b_{rest}] for a sparse vector v in the first slot."""
        out = {}
        for i, c in vec.items():
            if not c:
                continue
            for j, cj in self.bracket((i,) + tuple(rest)).items():
                out[j] = out.get(j, 0) + c * cj
        return {j: c for j, c in out.items() if c}

    # -- misc ---------------------------------------------------------

    @property
    def weight_rank(self):
        if self.weights is None:
            return 0
        return len(self.weights[0])

    def structure_equal(self, other) -> bool:
        """Same arity/dimension/brackets, ignoring labels and weights."""
        return (
            self.arity == other.arity
            and self.dim == other.dim
            and self.brackets == other.brackets
        )

    def __repr__(self):
        return (
            f"KaryAlgebra(arity={self.arity}, dim={self.dim}, "
            f"brackets={len(self.brackets)})"
        )

    @classmethod
    def from_brackets(cls, arity, dim, labels, items, weights=None):
        """Build from possibly unsorted bracket tuples.

        items is an iterable of (args, vector); unsorted args are
        normalized with the permutation sign, entries on equal keys are
        accumulated.
        """
        merged = {}
        for args, vec in items:
            key, sign = sort_with_sign(tuple(args))
            if sign == 0:
                raise InputError(f"bracket arguments {tuple(args)} repeat an index")
            acc = merged.setdefault(key, {})
            for i, c in vec.items():
                acc[i] = acc.get(i, 0) + sign * c
        merged = {
            k: {i: c for i, c in v.items() if c} for k, v in merged.items()
        }
        merged = {k: v for k, v in merged.items() if v}
        return cls(arity, dim, labels, merged, weights)


# -- structural checkers ----------------------------------------------


def check_jacobi(alg: KaryAlgebra, *, cap=DEFAULT_SIZE_CAP):
    """All basis tuples violating the generalized Jacobi identity.

    Checks strictly increasing inner k-tuples I against strictly
    increasing outer (k-1)-tuples O (overlaps allowed); this covers every
    case by multilinearity, since tuples with a repeat inside either
    group vanish identically on both sides.  The residual of (I, O) is
    [[I], O] - sum_i [I_1, ..., [I_i, O], ..., I_k], so it can be nonzero
    only if I is a stored key or some sorted {I_i} + O is one.  Only those
    pairs are visited: for each stored key K, (K, every O) and, for each
    e in K, (every I containing e, K without e).  Returns the violating
    (2k-1)-tuples, inner part first, in lexicographic order; empty means
    the identity holds.  The pairs are at most
    |keys| * (C(n, k-1) + k * C(n-1, k-1)); a bound over cap is refused
    before any work (cap None: no limit).
    """
    n, k = alg.dim, alg.arity
    bound = len(alg.brackets) * (comb(n, k - 1) + k * comb(n - 1, k - 1))
    if cap is not None and bound > cap:
        raise ResourceCapError(
            f"Jacobi check visits up to {bound} (inner, outer) pairs (cap {cap})"
        )
    outers = list(combinations(range(n), k - 1)) if alg.brackets else []
    containing = {}
    pairs = set()
    for key in alg.brackets:
        pairs.update((key, outer) for outer in outers)
        for i, e in enumerate(key):
            if e not in containing:
                others = [x for x in range(n) if x != e]
                containing[e] = [
                    tuple(sorted(rest + (e,))) for rest in combinations(others, k - 1)
                ]
            outer = key[:i] + key[i + 1 :]
            pairs.update((inner, outer) for inner in containing[e])
    return [
        inner + outer
        for inner, outer in sorted(pairs)
        if _jacobi_fails(alg, inner, outer)
    ]


def _jacobi_fails(alg, inner, outer):
    """Whether [[inner], outer] - sum_i [..., [inner_i, outer], ...] is nonzero."""
    residual = dict(alg.bracket_with_vector(alg.brackets.get(inner, {}), outer))
    for i in range(alg.arity):
        moved = alg.bracket((inner[i],) + outer)
        if not moved:
            continue
        for w, c in moved.items():
            replaced = inner[:i] + (w,) + inner[i + 1 :]
            for j, cj in alg.bracket(replaced).items():
                residual[j] = residual.get(j, 0) - c * cj
    return any(residual.values())


def lower_central_series(alg: KaryAlgebra):
    """[g, C^2, C^3, ...] with C^{i+1} = span[C^i, g, ..., g].

    Stops at the zero subspace or at the first repeat; the algebra is
    nilpotent iff the last term is zero.
    """
    series = [Subspace.full(alg.dim)]
    rests = list(combinations(range(alg.dim), alg.arity - 1))
    while True:
        current = series[-1]
        if current.dim == 0:
            return series
        gens = []
        for v in current.basis_vectors:
            vec = {i: c for i, c in enumerate(v) if c}
            for rest in rests:
                img = alg.bracket_with_vector(vec, rest)
                if img:
                    gens.append(img)
        nxt = Subspace.span(alg.dim, gens)
        series.append(nxt)
        if nxt.dim == current.dim:
            return series


def is_nilpotent(alg: KaryAlgebra) -> bool:
    return lower_central_series(alg)[-1].dim == 0


def center(alg: KaryAlgebra) -> Subspace:
    """Common kernel of v -> [v, b_{i_2}, ..., b_{i_k}] over basis subsets."""
    n = alg.dim
    entries = {}
    for r, rest in enumerate(combinations(range(n), alg.arity - 1)):
        for j in range(n):
            for out, c in alg.bracket((j,) + rest).items():
                entries[(r * n + out, j)] = c
    ad = SparseIntMatrix(comb(n, alg.arity - 1) * n, n, entries)
    return Subspace.span(n, kernel_basis(ad))


# -- subspaces ---------------------------------------------------------


class Subspace:
    """A subspace of Q^n held as integer basis rows.

    The rows come from `matrices.row_basis` and are not canonical: equal
    subspaces built from different generators may keep different rows,
    so equality is tested by containment.
    """

    __slots__ = ("ambient_dim", "basis_vectors")

    def __init__(self, ambient_dim: int, vectors):
        self.ambient_dim = ambient_dim
        self.basis_vectors = tuple(
            tuple(row.get(c, 0) for c in range(ambient_dim))
            for row in row_basis(_stack(ambient_dim, vectors))
        )

    @classmethod
    def span(cls, ambient_dim, sparse_vectors):
        return cls(ambient_dim, [[v.get(i, 0) for i in range(ambient_dim)] for v in sparse_vectors])

    @classmethod
    def full(cls, ambient_dim):
        return cls(ambient_dim, [[int(i == j) for j in range(ambient_dim)] for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self.basis_vectors)

    def contains_vector(self, vec) -> bool:
        return self.contains(Subspace(self.ambient_dim, [vec]))

    def contains(self, other: "Subspace") -> bool:
        union = _stack(self.ambient_dim, self.basis_vectors + other.basis_vectors)
        return rank(union) == self.dim

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.dim == other.dim
            and self.contains(other)
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.dim))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of Q^{self.ambient_dim})"


def _stack(ambient_dim, vectors) -> SparseIntMatrix:
    """Dense rational rows (int or Fraction entries) as an integer matrix,
    each row scaled to integers."""
    entries = {}
    vectors = list(vectors)
    for r, vec in enumerate(vectors):
        nonzero = {c: x for c, x in enumerate(vec) if x}
        scale = lcm(*(x.denominator for x in nonzero.values()))
        for c, x in nonzero.items():
            entries[(r, c)] = int(x * scale)
    return SparseIntMatrix(len(vectors), ambient_dim, entries)


# -- JSON interchange ---------------------------------------------------


def algebra_to_json_dict(alg: KaryAlgebra) -> dict:
    doc = {
        "arity": alg.arity,
        "dim": alg.dim,
        "labels": list(alg.labels),
        "brackets": [
            {"args": list(args), "value": [[c, i] for i, c in sorted(vec.items())]}
            for args, vec in sorted(alg.brackets.items())
        ],
    }
    if alg.weights is not None:
        doc["weights"] = [list(alg.weights[i]) for i in range(alg.dim)]
    return doc


def _parse_coefficient(x):
    """An int, or a Fraction parsed from a 'p/q' string."""
    if isinstance(x, bool):
        raise LoadError(f"bad coefficient {x!r}")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        from fractions import Fraction

        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise LoadError(f"bad coefficient {x!r}") from exc
    raise LoadError(f"coefficients must be integers or 'p/q' strings, got {x!r}")


def algebra_from_json_dict(doc: dict) -> KaryAlgebra:
    """Load an algebra document.

    Rational coefficients are accepted and cleared to integers by one
    global scaling of the bracket (multiplying the whole k-linear map by
    a positive constant preserves the Jacobi identity and every rank).
    """
    try:
        arity = int(doc["arity"])
        dim = int(doc["dim"])
        labels = list(doc["labels"])
        raw = list(doc["brackets"])
    except (KeyError, TypeError, ValueError) as exc:
        raise LoadError(f"missing or malformed field in algebra document: {exc}") from exc

    parsed = []
    denom = 1
    for item in raw:
        try:
            args = tuple(int(a) for a in item["args"])
            pairs = [(coeff, int(idx)) for coeff, idx in item["value"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise LoadError(
                f"bracket {item!r} needs 'args' and a 'value' of [coefficient, index] pairs"
            ) from exc
        if any(a >= b for a, b in zip(args, args[1:])):
            raise LoadError(f"bracket args {list(args)} must be strictly increasing")
        vec = {}
        for coeff, idx in pairs:
            q = _parse_coefficient(coeff)
            if q:
                vec[idx] = vec.get(idx, 0) + q
        vec = {i: c for i, c in vec.items() if c}
        if not vec:
            raise LoadError(f"bracket {list(args)} has an empty value")
        for c in vec.values():
            denom = lcm(denom, c.denominator)
        parsed.append((args, vec))

    brackets = {}
    for args, vec in parsed:
        if args in brackets:
            raise LoadError(f"duplicate bracket args {list(args)}")
        brackets[args] = {i: int(c * denom) for i, c in vec.items()}

    weights = doc.get("weights")
    if weights is not None:
        try:
            weights = {i: tuple(int(x) for x in w) for i, w in enumerate(weights)}
        except (TypeError, ValueError) as exc:
            raise LoadError(f"weights must be lists of integers: {exc}") from exc
        if len(weights) != dim:
            raise LoadError(f"expected {dim} weight vectors, got {len(weights)}")

    try:
        return KaryAlgebra(arity, dim, labels, brackets, weights)
    except InputError as exc:
        raise LoadError(str(exc)) from exc


def load_algebra(f) -> KaryAlgebra:
    if isinstance(f, (str, bytes)) or hasattr(f, "__fspath__"):
        try:
            fh = open(f, "r", encoding="utf-8")
        except OSError as exc:
            raise LoadError(f"cannot read algebra document: {exc}") from exc
        with fh:
            return load_algebra(fh)
    try:
        doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise LoadError(f"not valid JSON: {exc}") from exc
    return algebra_from_json_dict(doc)


def dump_algebra(alg: KaryAlgebra, f) -> None:
    if isinstance(f, (str, bytes)) or hasattr(f, "__fspath__"):
        with open(f, "w", encoding="utf-8") as fh:
            dump_algebra(alg, fh)
        return
    json.dump(algebra_to_json_dict(alg), f, indent=2, sort_keys=True)
    f.write("\n")
