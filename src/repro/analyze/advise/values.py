"""Abstract value domain for the advisor's points-to analysis.

Buffer handles are tracked as sets of :class:`Origin` records — where a
buffer *may* have been allocated — forming a join-semilattice under set
union with :data:`TOP` (unknown) absorbing everything.  Alongside
buffers the domain models exactly the helper values the HIP surface
threads between allocation and kernel launch: literal strings (the
allocator names), constant numbers (sizes), ``BufferAccess`` /
``KernelSpec`` aggregates, streams, tuples, lists, and opaque formal
parameters (:class:`ParamVal`) used while summarizing helper functions.

Allocator families mirror ``HipRuntime.array``'s allocator argument.
A family may also be symbolic — ``"@param<N>"`` — meaning "whatever
allocator string parameter N carries"; call-site substitution resolves
it (see :mod:`repro.analyze.advise.summaries`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

#: Families in which pages are physically mapped at allocation time.
UP_FRONT_FAMILIES = frozenset(
    {"hipMalloc", "hipHostMalloc", "malloc+register", "managed_static"}
)

#: Families whose pages are mapped on first touch (fault path).  Managed
#: memory is on-demand under XNACK, which is how the paper's unified
#: configurations run; the advisor assumes XNACK unless it sees a
#: literal ``make_runtime(..., xnack=False)``.
ON_DEMAND_FAMILIES = frozenset({"malloc", "hipMallocManaged"})

#: Explicit-model vs managed-model split for the mixed-alloc check.
EXPLICIT_FAMILIES = frozenset({"hipMalloc", "hipHostMalloc", "malloc+register"})
MANAGED_FAMILIES = frozenset({"hipMallocManaged", "managed_static"})


class _Top:
    """The unknown value (absorbing element of every join)."""

    _instance: Optional["_Top"] = None

    def __new__(cls) -> "_Top":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TOP"


TOP = _Top()


@dataclass(frozen=True)
class Origin:
    """One allocation site a buffer handle may point to."""

    line: int  #: allocation-site line in the analyzed file
    family: str  #: allocator family, or symbolic ``@param<N>``
    size_bytes: Optional[int] = None  #: constant-folded size, if known
    name: str = ""  #: buffer label when the call passed a literal name

    @property
    def resolved(self) -> bool:
        """Whether the allocator family is a concrete one."""
        return not self.family.startswith("@") and self.family != "?"

    @property
    def on_demand(self) -> bool:
        return self.family in ON_DEMAND_FAMILIES

    @property
    def up_front(self) -> bool:
        return self.family in UP_FRONT_FAMILIES


@dataclass(frozen=True)
class BufVal:
    """A buffer handle: the set of allocation sites it may alias."""

    origins: FrozenSet[Origin]

    @staticmethod
    def single(origin: Origin) -> "BufVal":
        return BufVal(frozenset({origin}))


@dataclass(frozen=True)
class StrVal:
    """A string constant (or a join of several)."""

    options: FrozenSet[str]

    @staticmethod
    def of(value: str) -> "StrVal":
        return StrVal(frozenset({value}))


@dataclass(frozen=True)
class NumVal:
    """A constant-folded number."""

    value: float

    @property
    def as_int(self) -> int:
        return int(self.value)


@dataclass(frozen=True)
class AccessVal:
    """An abstract ``BufferAccess(buffer, mode)``."""

    buf: object  # BufVal | ParamVal | TOP
    mode: str  # "read" | "write" | "readwrite" | "?"


@dataclass(frozen=True)
class SpecVal:
    """An abstract ``KernelSpec`` (name + buffer accesses)."""

    name: str
    accesses: Tuple[AccessVal, ...]


@dataclass(frozen=True)
class StreamVal:
    """A stream handle; anything from ``hipStreamCreate`` is
    non-default."""

    default: bool


@dataclass(frozen=True)
class TupleVal:
    elems: Tuple[object, ...]


@dataclass(frozen=True)
class ListVal:
    """A homogeneous list abstraction (joined element value)."""

    elem: object  # may be None for the empty list


@dataclass(frozen=True)
class ParamVal:
    """Opaque formal parameter placeholder used during summarization."""

    index: int


def join(a: object, b: object) -> object:
    """Least upper bound of two abstract values."""
    if a is None:
        return b
    if b is None:
        return a
    if a == b:
        return a
    if a is TOP or b is TOP:
        return TOP
    if isinstance(a, BufVal) and isinstance(b, BufVal):
        return BufVal(a.origins | b.origins)
    if isinstance(a, StrVal) and isinstance(b, StrVal):
        return StrVal(a.options | b.options)
    if isinstance(a, ListVal) and isinstance(b, ListVal):
        return ListVal(join(a.elem, b.elem))
    if isinstance(a, TupleVal) and isinstance(b, TupleVal) and len(
        a.elems
    ) == len(b.elems):
        return TupleVal(tuple(join(x, y) for x, y in zip(a.elems, b.elems)))
    if isinstance(a, AccessVal) and isinstance(b, AccessVal):
        mode = a.mode if a.mode == b.mode else "?"
        return AccessVal(join(a.buf, b.buf), mode)
    if isinstance(a, SpecVal) and isinstance(b, SpecVal) and len(
        a.accesses
    ) == len(b.accesses):
        name = a.name if a.name == b.name else "?"
        return SpecVal(
            name,
            tuple(join(x, y) for x, y in zip(a.accesses, b.accesses)),
        )
    if isinstance(a, StreamVal) and isinstance(b, StreamVal):
        return StreamVal(a.default and b.default)
    return TOP


def origins_of(value: object) -> FrozenSet[Origin]:
    """The origin set of a value, empty when it is not a buffer."""
    if isinstance(value, BufVal):
        return value.origins
    return frozenset()


def resolved_origins(value: object) -> FrozenSet[Origin]:
    """Only the origins whose allocator family is concrete."""
    return frozenset(o for o in origins_of(value) if o.resolved)


def substitute(value: object, bindings) -> object:
    """Bind a summary's formal-parameter placeholders to call-site values.

    *bindings* maps parameter index -> abstract value.  ``ParamVal``
    nodes are replaced outright; symbolic ``@param<N>`` allocator
    families inside :class:`Origin` are expanded against the bound
    string's options (or re-pointed at the caller's own parameter when
    the binding is itself a :class:`ParamVal`, so summaries compose
    through multiple call levels)."""
    from dataclasses import replace

    if isinstance(value, ParamVal):
        return bindings.get(value.index, TOP)
    if isinstance(value, BufVal):
        origins = set()
        for origin in value.origins:
            if not origin.family.startswith("@param"):
                origins.add(origin)
                continue
            bound = bindings.get(int(origin.family[len("@param"):]))
            if isinstance(bound, StrVal):
                for family in bound.options:
                    origins.add(replace(origin, family=family))
            elif isinstance(bound, ParamVal):
                origins.add(replace(origin, family=f"@param{bound.index}"))
            else:
                origins.add(replace(origin, family="?"))
        return BufVal(frozenset(origins))
    if isinstance(value, AccessVal):
        return AccessVal(substitute(value.buf, bindings), value.mode)
    if isinstance(value, SpecVal):
        return SpecVal(
            value.name,
            tuple(substitute(a, bindings) for a in value.accesses),
        )
    if isinstance(value, TupleVal):
        return TupleVal(tuple(substitute(e, bindings) for e in value.elems))
    if isinstance(value, ListVal):
        return ListVal(substitute(value.elem, bindings))
    return value
