"""Finite-dimensional k-ary Lie algebras over Q with integer structure constants.

An algebra is given by its bracket on basis elements.  Antisymmetry is
built into the storage: brackets are kept only on strictly increasing
index tuples, and the bracket at any other tuple is the stored one
times the sign of the sorting permutation.  The generalized (Filippov)
Jacobi identity

    [[x_1,...,x_k], y_2,...,y_k]
        = sum_i [x_1,...,[x_i, y_2,...,y_k],...,x_k]

is not assumed; `check_jacobi` verifies it on basis tuples, which
suffices by multilinearity.  The engine reads brackets only as stored
keys and through one signed adjoint table {R: {x: [x, R]}} built from
them (`_adjoint`), which the structural checkers (`check_jacobi`,
`lower_central_series`, `center`) read; a tuple R in no stored key has
ad_R = 0, so every term it could enter vanishes.  The first two
multiply rows of the table through `_product`, the one sparse row
product, which `chains.verify_d_squared` also uses.
"""

import json
import re
from math import lcm

from .errors import PRINTED_BELOW, InputError, LoadError, ResourceCapError, shown

DEFAULT_SIZE_CAP = 10**6


def refuse_over_cap(count: int, cap: int, what: str, *, at_least: bool = False) -> None:
    """Raise `ResourceCapError` when count exceeds cap.

    The one comparison of a count with the size cap.  `what` says what
    was counted, with `{}` where the count goes; at_least marks a count
    that only bounds the true one from below.  The count and the cap are
    written by `errors.shown`, so one of 10^18 or more is "over 10^18"
    and no refusal converts an unbounded int to str.
    """
    if count > cap:
        text = f"at least {count}" if at_least and count < PRINTED_BELOW else shown(count)
        raise ResourceCapError(f"{what.replace('{}', text)} (cap {shown(cap)})")


def _all_int(values) -> bool:
    """Whether every value is an int proper (bool, float and str are not)."""
    return all(type(x) is int for x in values)


def sort_with_sign(indices):
    """Sort a tuple of indices, tracking the permutation parity.

    Returns (sorted_tuple, sign); sign is 0 if an index repeats.
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return tuple(idx), 0
    return tuple(idx), sign


class KaryAlgebra:
    """A k-ary algebra on an ordered basis.

    brackets maps strictly increasing k-tuples of basis indices to sparse
    integer vectors {index: coefficient}; absent tuples bracket to zero.
    weights, when present, give every basis element an integer vector in
    Z^r such that brackets are weight-additive.

    The constructor is the one validator of all of this: arity,
    dimension, keys, output indices, coefficients and weights must be
    ints (bool, float and str are refused), in range and consistent.
    An algebra is immutable after construction: nothing may change its
    brackets or weights.  Its chain layout (`chains.ChainLayout.of`),
    with the record of every boundary eliminated so far, is kept on the
    algebra and shared by all callers.
    """

    __slots__ = ("arity", "dim", "labels", "brackets", "weights", "_chain_layout")

    def __init__(self, arity, dim, labels, brackets, weights=None):
        if not _all_int((arity, dim)):
            raise InputError(f"arity and dimension must be integers, got {arity!r}, {dim!r}")
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
            if len(args) != arity or not _all_int(args):
                raise InputError(f"bracket key {args} is not {arity} integers")
            if any(not 0 <= i < dim for i in args):
                raise InputError(f"bracket key {args} out of range")
            if any(a >= b for a, b in zip(args, args[1:])):
                raise InputError(f"bracket key {args} is not strictly increasing")
            if not _all_int(vec) or not _all_int(vec.values()):
                raise InputError(f"bracket {args} has a non-integer index or coefficient")
            vec = {i: c for i, c in vec.items() if c}
            if not vec:
                raise InputError(f"bracket {args} stores a zero vector")
            if any(not 0 <= i < dim for i in vec):
                raise InputError(f"bracket {args} has out-of-range output indices")
            stored[args] = vec
        self.brackets = stored

        if weights is not None:
            weights = {i: tuple(w) for i, w in weights.items()}
            if not _all_int(weights) or sorted(weights) != list(range(dim)):
                raise InputError("weights must cover every basis index exactly once")
            if not all(map(_all_int, weights.values())):
                raise InputError("weight vectors must hold integers")
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

    # -- misc ---------------------------------------------------------

    @property
    def weight_rank(self):
        if self.weights is None:
            return 0
        return len(self.weights[0])

    def __repr__(self):
        return (
            f"KaryAlgebra(arity={self.arity}, dim={self.dim}, "
            f"brackets={len(self.brackets)})"
        )


# -- structural checkers ----------------------------------------------


_ZERO = {}  # the zero vector, shared by lookups that miss; never written


def _product(a: dict, b: dict) -> dict:
    """a . b of sparse rows: row r is sum over m of a[r][m] * b[m].

    The row keys of a are any hashable keys (basis indices, masks or the
    bracket-key tuples of `KaryAlgebra.brackets`); its column keys are
    the row keys of b.  Sums that cancel are dropped, and so are rows
    left empty, so the product is {} iff it is zero.  Neither argument
    is changed, and no row of the product is a row of either.
    """
    out = {}
    for r, row in a.items():
        acc = {}
        for m, x in row.items():
            for c, y in b.get(m, _ZERO).items():
                acc[c] = acc.get(c, 0) + x * y
        acc = {c: v for c, v in acc.items() if v}
        if acc:
            out[r] = acc
    return out


def _adjoint(alg: KaryAlgebra):
    """{R: {x: [x, R]}} over the sorted (k-1)-tuples R inside some stored key.

    Moving entry i of a key K to the front takes i transpositions, so
    [K_i, K without K_i] = (-1)^i [K]; every other [x, R] with R sorted
    is zero (x in R, or sorted R + {x} not a key).  The rows share the
    stored vectors and must not be changed.
    """
    ad = {}
    for key, vec in alg.brackets.items():
        neg = {j: -c for j, c in vec.items()}
        for i, x in enumerate(key):
            ad.setdefault(key[:i] + key[i + 1 :], {})[x] = neg if i % 2 else vec
    return ad


def check_jacobi(alg: KaryAlgebra, *, cap=DEFAULT_SIZE_CAP):
    """All basis tuples violating the generalized Jacobi identity.

    Checks strictly increasing inner k-tuples I against strictly
    increasing outer (k-1)-tuples O (overlaps allowed); this covers every
    case by multilinearity, since tuples with a repeat inside either
    group vanish identically on both sides.  The residual of (I, O) is

        [[I], O] - sum_i [I_1, ..., [I_i, O], ..., I_k],

    and it is zero unless O is a row of the table {R: {x: [x, R]}} of
    `_adjoint`.  For each row O, two kinds of `_product` give every term:
    - brackets . ad_O has row I equal to [[I], O], for every key I;
    - ad_O . ad_R has row x equal to [[x, O], R].  For x not in R this
      is [[I_i, O], I - I_i] with I = sorted R + {x} and i the number of
      entries of R below x; moving the bracket from position i to the
      front takes i transpositions, so the term enters as -(-1)^i.
    Returns the violating (2k-1)-tuples, inner part first, in
    lexicographic order; empty means the identity holds.

    The loop makes |rows| * (|keys| + |rows|) row visits: |rows| products
    over the stored keys and |rows|^2 products of table rows.  Each key
    gives k distinct rows, so k <= |rows| <= k * |keys| and the visits
    are at most (k+1) * |keys| * |rows|; more than cap is refused before
    they start, and so is (k+1) * k * |keys| > cap before the table, of
    about k^2 * |keys| entries, is built.
    """
    k, keys = alg.arity, len(alg.brackets)
    what = "Jacobi check visits {} (inner, outer) pairs"
    refuse_over_cap((k + 1) * k * keys, cap, what, at_least=True)
    ad = _adjoint(alg)
    refuse_over_cap((k + 1) * keys * len(ad), cap, "Jacobi check visits up to {} (inner, outer) pairs")
    fails = []
    for outer, ad_outer in ad.items():
        residual = _product(alg.brackets, ad_outer)
        for rest, ad_rest in ad.items():
            for x, term in _product(ad_outer, ad_rest).items():
                if x in rest:
                    continue
                i = sum(r < x for r in rest)
                acc = residual.setdefault(rest[:i] + (x,) + rest[i:], {})
                for j, c in term.items():  # the term enters as -(-1)^i
                    acc[j] = acc.get(j, 0) + (c if i % 2 else -c)
        fails.extend(inner + outer for inner, vec in residual.items() if any(vec.values()))
    return sorted(fails)


def lower_central_series(alg: KaryAlgebra):
    """Bases of g, C^2, C^3, ... with C^{i+1} = span[C^i, g, ..., g].

    Each term is a list of independent {index: int} rows: the unit rows
    for g, then the rows `matrices.row_basis` keeps, which are not
    canonical (equal terms built from different generators may keep
    different rows).  C^{i+1} is spanned by [v, R] = sum_x v_x ad_R(x)
    over the rows v of C^i and the rows R of `_adjoint`: for each R the
    images are the rows of `_product`(C^i, ad_R), and the image of the
    i-th v under the j-th R is span row i * |ad| + j, so `row_basis`
    breaks ties in v-major order.  Stops at the
    empty term or at the first repeat; the algebra is nilpotent iff the
    last term is empty.
    """
    from .matrices import row_basis

    ad = list(_adjoint(alg).values())
    series = [[{i: 1} for i in range(alg.dim)]]
    while series[-1]:
        current, spans = dict(enumerate(series[-1])), {}
        for j, ad_r in enumerate(ad):
            for i, img in _product(current, ad_r).items():
                spans[i * len(ad) + j] = img
        series.append(row_basis(spans))
        if len(series[-1]) == len(series[-2]):
            break
    return series


def center(alg: KaryAlgebra) -> list:
    """A basis of the center: the common kernel of v -> [v, R] over the
    rows R of `_adjoint`.

    [v, R] is zero for every other sorted (k-1)-tuple R, so these rows
    give the kernel over all basis subsets.  The basis is the list of
    primitive {index: int} rows `matrices.kernel_basis` returns, the
    pivot rows of one row echelon, sorted by least index; it is not
    canonical.
    """
    from .matrices import kernel_basis

    n = alg.dim
    rows = {}
    for r, row in enumerate(_adjoint(alg).values()):
        for j, vec in row.items():
            for out, c in vec.items():
                rows.setdefault(r * n + out, {})[j] = c
    return kernel_basis(rows, n)


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
    """An int, or a Fraction parsed from a '[+-]p' or '[+-]p/q' string of
    ASCII digits; decimals, exponents and spaces are refused."""
    if type(x) is int:
        return x
    if isinstance(x, str) and re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", x):
        from fractions import Fraction

        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise LoadError(f"bad coefficient {x!r}") from exc
    raise LoadError(f"coefficients must be integers or 'p/q' strings, got {x!r}")


def algebra_from_json_dict(doc: dict) -> KaryAlgebra:
    """Load an algebra document.

    Only the document's shape, labels (an array of strings), duplicate
    bracket args and output indices repeated within one value (JSON true
    and 1 are one index) are checked here; every other value goes to the
    `KaryAlgebra` constructor as it stands, which validates it.  Rational coefficients are accepted
    and cleared to integers by one global scaling of the bracket
    (scaling the whole k-linear map by a positive constant preserves
    the Jacobi identity and every rank).
    """
    try:
        arity, dim, labels = doc["arity"], doc["dim"], doc["labels"]
        raw = list(doc["brackets"])
        weights = doc.get("weights")
        if weights is not None:
            weights = {i: tuple(w) for i, w in enumerate(weights)}
    except (KeyError, TypeError) as exc:
        raise LoadError(f"missing or malformed field in algebra document: {exc}") from exc
    if type(labels) is not list or not all(type(x) is str for x in labels):
        raise LoadError("labels must be an array of strings")

    brackets = {}
    denom = 1
    for item in raw:
        try:
            args = tuple(item["args"])
            if args in brackets:
                raise LoadError(f"duplicate bracket args {list(args)}")
            vec = brackets[args] = {}
            for coeff, idx in item["value"]:
                if idx in vec:
                    raise LoadError(f"bracket {list(args)} repeats output index {idx!r}")
                q = vec[idx] = _parse_coefficient(coeff)
                denom = lcm(denom, q.denominator)
        except LoadError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise LoadError(f"malformed bracket {item!r}: {exc}") from exc

    # every scaled coefficient is integral, so its numerator is its value
    brackets = {
        args: {i: (c * denom).numerator for i, c in vec.items()}
        for args, vec in brackets.items()
    }
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
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or long int; deep nesting
        raise LoadError(f"not valid JSON: {exc}") from exc
    return algebra_from_json_dict(doc)

