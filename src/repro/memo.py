"""Run-scoped memo of pure, seeded computations that several points read.

The explicit and unified variants of an app differ in allocations and
copies, never in their kernels, so within one engine run they compute
the same functions of the same seeds.  :func:`memoised` computes such a
function once per distinct argument value: :meth:`Engine.run_many
<repro.exp.Engine.run_many>` makes a fresh :class:`Memo` current for the
run (forked pool workers inherit it empty) and drops it when the run
returns.  Outside a run every call computes.  A bench runner may share a
pure, seeded set-up the same way (Fig. 2's
:func:`repro.bench.multichase.chase_curve`); it returns plain values,
never simulator objects, since the budget counts arrays only.

The key is the function plus the value of every argument: a
``np.random.Generator`` by its ``bit_generator.state`` (a hit sets the
generator to the state the call would have left), scalars, strings and
tuples by value (floats by ``hex()``, so ``-0.0`` and ``0.0`` differ),
and arrays by dtype, shape and ``tobytes()``, which suits small arrays
only: a chain takes the scalars that seed its inputs and calls its
memoised generator itself, a hit inside a run.

Results are stored and returned read-only, never copied.  Their bytes
stay within :data:`BUDGET_BYTES`, evicting the least recently used
entries; an entry larger than the budget is not stored.  Evicting an
entry also evicts those computed from it (the memoised calls their miss
made), so a chain's result never outlives its inputs in the memo.

A memoised function must not write its arguments, and its result must
depend on nothing but them.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
from collections import Counter, OrderedDict
from typing import Any, Callable, Iterator, List, Optional, Tuple

import numpy as np

#: Bytes of results the memo may hold.  The full-grid dwt2d image and
#: its transform (256 MiB each) fit.
BUDGET_BYTES = 512 << 20

_CURRENT: contextvars.ContextVar[Optional["Memo"]] = contextvars.ContextVar(
    "repro_memo", default=None
)


def _rng_state(rng: np.random.Generator) -> Any:
    """A hashable form of a generator's ``bit_generator.state`` dict."""
    def freeze(value):
        if isinstance(value, dict):
            return tuple((k, freeze(v)) for k, v in sorted(value.items()))
        return value

    return freeze(rng.bit_generator.state)


def _key(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, np.random.Generator):
        return ("rng", _rng_state(value))
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, tuple):
        return tuple(_key(v) for v in value)
    if value is None or isinstance(value, (bool, int, str, np.integer)):
        return (type(value).__name__, value)
    raise TypeError(f"memoised argument of unsupported type {type(value)!r}")


def _frozen(value: Any, inputs: List[np.ndarray]) -> Any:
    """*value* with every array in it read-only.  An array that shares
    memory with an input is copied first: a caller's buffer is never
    frozen."""
    if isinstance(value, tuple):
        return tuple(_frozen(v, inputs) for v in value)
    if isinstance(value, np.ndarray):
        if any(np.may_share_memory(value, a) for a in inputs):
            value = value.copy()
        value.flags.writeable = False
    return value


def _nbytes(value: Any) -> int:
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return value.nbytes if isinstance(value, np.ndarray) else 0


class Memo:
    """One run's memo: entries by key, LRU-ordered, byte-bounded."""

    def __init__(self):
        #: Bytes of the results held.
        self.nbytes = 0
        #: Hits and misses per memoised function (``module.qualname``).
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()
        # key -> (result, generator states after, bytes, keys it read)
        self._entries: "OrderedDict[Any, Tuple]" = OrderedDict()
        # The keys each miss being computed has called, innermost last.
        self._reading: List[List[Any]] = []

    def call(self, fn: Callable, name: str, args: Tuple) -> Any:
        """*fn(*args)*, from the memo when an equal call is held."""
        key = (fn, *map(_key, args))
        if self._reading:
            self._reading[-1].append(key)
        rngs = [a for a in args if isinstance(a, np.random.Generator)]
        if key in self._entries:
            self.hits[name] += 1
            self._entries.move_to_end(key)
            value, rng_after, _, _ = self._entries[key]
            for rng, state in zip(rngs, rng_after):
                rng.bit_generator.state = state
            return value
        self.misses[name] += 1
        self._reading.append([])
        try:
            value = fn(*args)
        finally:
            read = self._reading.pop()
        value = _frozen(value, [a for a in args if isinstance(a, np.ndarray)])
        nbytes = _nbytes(value)
        if nbytes <= BUDGET_BYTES:
            self._entries[key] = (value, [rng.bit_generator.state
                                          for rng in rngs], nbytes, read)
            self.nbytes += nbytes
            while self.nbytes > BUDGET_BYTES:
                self._evict(next(iter(self._entries)))
        return value

    def _evict(self, key: Any) -> None:
        """Drop *key*'s entry and every entry computed from it."""
        self.nbytes -= self._entries.pop(key)[2]
        for other in [k for k, e in self._entries.items() if key in e[3]]:
            if other in self._entries:
                self._evict(other)


@contextlib.contextmanager
def scope() -> Iterator[Memo]:
    """Make a fresh memo current for the block."""
    memo = Memo()
    token = _CURRENT.set(memo)
    try:
        yield memo
    finally:
        _CURRENT.reset(token)


def memoised(fn: Callable) -> Callable:
    """Compute *fn* once per distinct argument value within a memo scope."""
    name = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def wrapper(*args):
        memo = _CURRENT.get()
        if memo is None:
            return fn(*args)
        return memo.call(fn, name, args)

    return wrapper
