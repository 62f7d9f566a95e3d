"""Finite-dimensional vector lattice core.

Vectors carry the coordinatewise order, masks are the band projections of the
coordinatewise structure, and fragments of x are the vectors that agree with x
on a support subset and vanish elsewhere (enumerated by index over the
support columns, with a Vector built on demand).  Everything is immutable;
all tolerance-based comparisons take an explicit ``tol`` (default 1e-9).
Vector and mask arithmetic, and the library's internal results (operator
values, program values, witness fragments from `Fragments._at`), are built
with the private `_vec` and `_mask`: no conversion, emptiness or index test,
but `_vec` checks finiteness.
The eps schedule of the projection programs lives here, beside the rules it
checks, so that model settings can build one without the programs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import and_, attrgetter, not_, or_
from typing import Iterator, Union

from .errors import DimensionMismatch, NotConverged, NotPositiveUnit, SupportTooLarge

DEFAULT_TOL = 1e-9
DEFAULT_SUPPORT_CAP = 20
_SUP_FORM_MAX_N = 1_000_000  # step cap of principal_projection_sup_form


class _Record:
    """Base of the package's value types.

    Instances are frozen and slotted: assignment and deletion raise
    AttributeError, so the private slots some types keep (tables, decisions)
    are written with ``object.__setattr__``.  ``==``, hash and repr read the
    public fields alone, listed in constructor order in `_fields`, and a
    pickle or copy rebuilds an instance from its fields through the
    constructor.  `_replace` and `_asdict` work on the fields.

    The shared constructor takes the fields by position or keyword, the
    trailing ones defaulting from `_defaults`, then runs `__post_init__`, the
    type's checks and normalization.  Types built in hot loops define their
    own ``__init__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the fields' values; with one field, the value itself, which compares
        # as its 1-tuple would, since no one-field type holds a bare NaN
        cls._get = attrgetter(*cls._fields)

    @property
    def _key(self) -> tuple:
        value = self._get(self)
        return (value,) if len(self._fields) == 1 else value

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for key, value in zip(self._fields, args):
            object.__setattr__(self, key, value)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call with keywords or defaults, in order."""
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes at most {len(fields)} arguments ({len(args)} given)")
        given = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields or key in given:
                raise TypeError(f"{name}() got an unexpected or repeated argument {key!r}")
        given.update(kwargs)
        for key in fields:
            if key not in given:
                if key not in self._defaults:
                    raise TypeError(f"{name}() missing argument {key!r}")
                given[key] = self._defaults[key]
        return tuple(given[key] for key in fields)

    def __post_init__(self):
        pass

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            get = self._get
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        shown = ", ".join(f"{key}={value!r}" for key, value in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return (type(self), self._key)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._key))

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})


def require_positive_finite(name: str, value: float) -> None:
    """Raise ValueError unless value (an eps) is positive and finite."""
    if value <= 0.0:
        raise ValueError(f"{name} must be positive")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")


def require_count(name: str, value: int) -> None:
    """Raise ValueError unless value (a step count) is an integer >= 1."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    if not isinstance(value, int):
        raise ValueError(f"{name} must be an integer")


class EpsSchedule(_Record):
    """Geometric epsilon schedule eps0 * factor^k, k = 0..max_steps-1."""

    __slots__ = _fields = ("eps0", "factor", "max_steps")
    _defaults = {"eps0": 1.0, "factor": 0.5, "max_steps": 40}

    def __post_init__(self):
        require_positive_finite("eps0", self.eps0)
        if not (0.0 < self.factor < 1.0):
            raise ValueError("factor must lie strictly in (0,1)")
        require_count("max_steps", self.max_steps)

    def values(self) -> Iterator[float]:
        eps = self.eps0
        for _ in range(self.max_steps):
            yield eps
            eps *= self.factor


def require_unit(u: Vector, dim: int, tol: float) -> None:
    """Raise unless u is a regulating unit of R^dim: DimensionMismatch for
    another dimension, NotPositiveUnit for a coordinate <= tol."""
    if u.dim != dim:
        raise DimensionMismatch(f"unit dim {u.dim} vs {dim}")
    if any(c <= tol for c in u.coords):
        raise NotPositiveUnit("regulating unit must be strictly positive")


class Vector(_Record):
    """Element of R^d with the coordinatewise lattice order."""

    __slots__ = _fields = ("coords",)

    def __init__(self, coords: Sequence[float]):
        pts = tuple(map(float, coords))
        if not pts:
            raise ValueError("vector must have at least one coordinate")
        if not all(map(math.isfinite, pts)):
            raise ValueError("vector coordinates must be finite")
        object.__setattr__(self, "coords", pts)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @staticmethod
    def zero(dim: int) -> "Vector":
        return Vector((0.0,) * dim)

    @staticmethod
    def ones(dim: int) -> "Vector":
        return Vector((1.0,) * dim)

    def _check_dim(self, other: "Vector") -> None:
        if len(self.coords) != len(other.coords):
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return _vec(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return _vec(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Vector":
        return _vec(tuple(-a for a in self.coords))

    def scale(self, a: float) -> "Vector":
        return Vector(tuple(a * c for c in self.coords))

    def join(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return _vec(tuple(max(a, b) for a, b in zip(self.coords, other.coords)))

    def meet(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return _vec(tuple(min(a, b) for a, b in zip(self.coords, other.coords)))

    def abs(self) -> "Vector":
        return _vec(tuple(abs(c) for c in self.coords))

    def pos_part(self) -> "Vector":
        return _vec(tuple(c if c > 0.0 else 0.0 for c in self.coords))

    def neg_part(self) -> "Vector":
        return _vec(tuple(-c if c < 0.0 else 0.0 for c in self.coords))

    def leq(self, other: "Vector", tol: float = DEFAULT_TOL) -> bool:
        if other is self and tol >= 0.0:
            return True
        self._check_dim(other)
        return all(a <= b + tol for a, b in zip(self.coords, other.coords))

    def isclose(self, other: "Vector", tol: float = DEFAULT_TOL) -> bool:
        if other is self and tol >= 0.0:
            return True
        self._check_dim(other)
        return all(abs(a - b) <= tol for a, b in zip(self.coords, other.coords))

    def support(self, tol: float = DEFAULT_TOL) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coords) if abs(c) > tol)


def vec(*coords: float) -> Vector:
    return Vector(tuple(coords))


def is_disjoint(v: Vector, w: Vector, tol: float = DEFAULT_TOL) -> bool:
    """|v| ^ |w| = 0 within tol."""
    v._check_dim(w)
    return all(min(abs(a), abs(b)) <= tol for a, b in zip(v.coords, w.coords))


class Fragments(Sequence):
    """The 2^|supp(x)| fragments of x, by support bitmask ascending.

    supp lists the support columns of x ascending, and bit b of a fragment
    index k says whether fragment k keeps x_supp[b]: fragment k is x_j on the
    kept columns and 0.0 elsewhere.  The table programs read supp alone;
    indexing or iterating builds the validated Vector on demand, for the
    witnesses a result returns, and a slice builds a list of them.
    """

    __slots__ = ("x", "supp")

    def __init__(self, x: Vector, supp: tuple[int, ...]):
        self.x = x
        self.supp = supp

    def __len__(self) -> int:
        return 1 << len(self.supp)

    def __getitem__(self, k: int | slice) -> Vector | list[Vector]:
        if isinstance(k, slice):
            return [self._at(i) for i in range(len(self))[k]]
        # IndexError past the end, as iteration needs
        return self._at(range(1 << len(self.supp))[k])

    def _at(self, k: int) -> Vector:
        """Fragment k, for 0 <= k < len(self), without indexing's checks."""
        xs = self.x.coords
        coords = [0.0] * len(xs)
        for b, j in enumerate(self.supp):
            if k >> b & 1:
                coords[j] = xs[j]
        return _vec(tuple(coords))


def fragments(x: Vector, cap: int = DEFAULT_SUPPORT_CAP, tol: float = DEFAULT_TOL) -> Fragments:
    """All 2^|supp(x)| fragments of x, by support bitmask ascending, as a
    Fragments sequence; a fragment Vector is built only when indexed.

    Bit k of the bitmask selects the k-th support coordinate in increasing
    coordinate order.  Raises SupportTooLarge when |supp(x)| exceeds cap.
    """
    supp = x.support(tol)
    if len(supp) > cap:
        raise SupportTooLarge(f"|supp(x)| = {len(supp)} exceeds cap {cap}")
    return Fragments(x, supp)


def first_extremum(values: Sequence[float], maximize: bool) -> tuple[float, int]:
    """The max (or min) of values and the index of its first occurrence.

    Over candidates listed in fragment order this is the tie rule of every
    scan: the lowest fragment bitmask attaining the extremum wins."""
    best = max(values) if maximize else min(values)
    return best, values.index(best)


def is_fragment(z: Vector, x: Vector, tol: float = DEFAULT_TOL) -> bool:
    """True iff every coordinate of z is 0 or x_i (within tol)."""
    z._check_dim(x)
    return all(
        min(abs(zc), abs(zc - xc)) <= tol
        for zc, xc in zip(z.coords, x.coords)
    )


class Mask(_Record):
    """Coordinate selection; applying it is the band projection for that band."""

    __slots__ = _fields = ("bits",)

    def __init__(self, bits: Sequence[bool]):
        bits = tuple(map(bool, bits))
        if not bits:
            raise ValueError("mask must have at least one coordinate")
        object.__setattr__(self, "bits", bits)

    @property
    def dim(self) -> int:
        return len(self.bits)

    @staticmethod
    def full(dim: int) -> "Mask":
        return Mask((True,) * dim)

    @staticmethod
    def empty(dim: int) -> "Mask":
        return Mask((False,) * dim)

    @staticmethod
    def from_indices(dim: int, indices: Sequence[int]) -> "Mask":
        bits = [False] * dim
        for i in indices:
            if not 0 <= i < dim:
                raise ValueError(f"mask index {i} is outside range({dim})")
            bits[i] = True
        return Mask(tuple(bits))

    def _check_dim(self, other: "Mask") -> None:
        if len(self.bits) != len(other.bits):
            raise DimensionMismatch(f"mask dim {self.dim} vs {other.dim}")

    def apply(self, v: Vector) -> Vector:
        if len(self.bits) != len(v.coords):
            raise DimensionMismatch(f"mask dim {self.dim} vs vector dim {v.dim}")
        return _vec(tuple(c if b else 0.0 for b, c in zip(self.bits, v.coords)))

    def __and__(self, other: "Mask") -> "Mask":
        self._check_dim(other)
        return _mask(tuple(map(and_, self.bits, other.bits)))

    def __or__(self, other: "Mask") -> "Mask":
        self._check_dim(other)
        return _mask(tuple(map(or_, self.bits, other.bits)))

    def complement(self) -> "Mask":
        return _mask(tuple(map(not_, self.bits)))

    def leq(self, other: "Mask") -> bool:
        # order of projections: rho <= rho' iff rho*rho' = rho, i.e. bits subset
        self._check_dim(other)
        return all((not a) or b for a, b in zip(self.bits, other.bits))

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits) if b)

    @property
    def is_empty(self) -> bool:
        return not any(self.bits)

    @property
    def is_full(self) -> bool:
        return all(self.bits)

    def bitmask(self) -> int:
        return sum(1 << i for i, b in enumerate(self.bits) if b)


def _vec(coords: tuple[float, ...]) -> Vector:
    if not all(map(math.isfinite, coords)):
        raise ValueError("vector coordinates must be finite")
    v = object.__new__(Vector)
    Vector.coords.__set__(v, coords)  # the slot itself, past _Record's guard
    return v


def _mask(bits: tuple[bool, ...]) -> Mask:
    m = object.__new__(Mask)
    Mask.bits.__set__(m, bits)
    return m


def all_masks(dim: int) -> list[Mask]:
    """All 2^dim masks, ascending by bitmask (bit i = coordinate i)."""
    return [
        Mask(tuple(bm >> i & 1 == 1 for i in range(dim)))
        for bm in range(1 << dim)
    ]


def principal_mask(f: Vector, tol: float = DEFAULT_TOL) -> Mask:
    """Mask of the band generated by f: coordinate i selected iff |f_i| > tol."""
    return _mask(tuple(abs(c) > tol for c in f.coords))


def principal_projection_sup_form(f: Vector, g: Vector) -> Vector:
    """Projection of g >= 0 onto the band of f, computed as sup_n (g ^ n|f|).

    Slow reference path: iterates n until the meet stops changing (which is
    exact -- each coordinate either reaches g_i and stays, or is pinned at 0).
    """
    if not Vector.zero(g.dim).leq(g, 0.0):
        raise ValueError("sup-form projection requires g >= 0")
    af = f.abs()
    prev = g.meet(af)
    n = 1
    while n < _SUP_FORM_MAX_N:
        n += 1
        cur = g.meet(af.scale(float(n)))
        if cur == prev:
            return cur
        prev = cur
    raise NotConverged(f"sup form did not stabilize within {_SUP_FORM_MAX_N} steps")


IndexedItem = Union[Vector, Mask]


class IndexedFamily(_Record):
    """Finite labeled family (labels are opaque, order gives the total order)."""

    __slots__ = _fields = ("labels", "items")

    def __post_init__(self):
        labels = tuple(str(l) for l in self.labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "items", tuple(self.items))
        if len(labels) != len(self.items):
            raise ValueError("labels and items must have equal length")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")

    def __len__(self) -> int:
        return len(self.items)

    def pairs(self) -> Iterator[tuple[str, IndexedItem]]:
        return iter(zip(self.labels, self.items))

    def get(self, label: str) -> IndexedItem:
        return self.items[self.labels.index(label)]


def is_partition_of_unity(masks: Sequence[Mask] | IndexedFamily) -> bool:
    """True iff the masks are pairwise disjoint and join to the identity."""
    items = list(masks.items) if isinstance(masks, IndexedFamily) else list(masks)
    if not items:
        return False
    dim = items[0].dim
    if any(m.dim != dim for m in items):
        raise DimensionMismatch("masks must share a dimension")
    union = Mask.empty(dim)
    for i, m in enumerate(items):
        for q in items[i + 1:]:
            if not (m & q).is_empty:
                return False
        union = union | m
    return union.is_full


def order_limit_witness(
    seq: IndexedFamily,
    x: Vector,
    eps: float,
    u: Vector,
    tol: float = DEFAULT_TOL,
) -> IndexedFamily:
    """Partition of unity certifying |x_b - x| <= eps*u from each coordinate's
    earliest stable index onward.

    Coordinate i is assigned to the earliest label L such that
    |x_b - x|_i <= eps*u_i for every b >= L; labels whose mask comes out empty
    are dropped.  Raises NotConverged when some coordinate never settles and
    NotPositiveUnit when u has a zero coordinate.
    """
    if len(seq) == 0:
        raise ValueError("sequence must be nonempty")
    require_positive_finite("eps", eps)
    require_unit(u, x.dim, tol)

    for item in seq.items:
        if not isinstance(item, Vector):
            raise ValueError("sequence items must be vectors")
        if item.dim != x.dim:
            raise DimensionMismatch(f"sequence item dim {item.dim} vs {x.dim}")

    devs = [(v - x).abs().coords for v in seq.items]
    # per coordinate, scan back from the last index while the bound holds;
    # owners maps each earliest stable index to its coordinates
    owners: dict[int, list[int]] = {}
    for i in range(x.dim):
        bound = eps * u.coords[i] + tol
        first = len(devs)
        while first and devs[first - 1][i] <= bound:
            first -= 1
        if first == len(devs):
            raise NotConverged(
                f"coordinate {i} never satisfies |x_b - x| <= eps*u from any index on"
            )
        owners.setdefault(first, []).append(i)

    firsts = sorted(owners)
    return IndexedFamily(
        tuple(seq.labels[k] for k in firsts),
        tuple(Mask.from_indices(x.dim, owners[k]) for k in firsts),
    )
