"""Run-scoped memo of pure, seeded computations that several points read.

The explicit and unified variants of an app differ in allocations and
copies, never in their kernels, so within one engine run they feed the
same numpy functions the same inputs.  :func:`memoised` lets such a pure
function compute once per distinct input: :meth:`Engine.run_many
<repro.exp.Engine.run_many>` makes a fresh :class:`Memo` current for the
whole run (forked pool workers inherit it empty) and drops it when the
run returns.  Outside a run there is no memo and every call computes.

A bench runner may use it the same way when its points share a pure,
seeded set-up that they read without writing: Fig. 2's CPU and GPU
curves of one allocator come from one APU boot and first touch
(:func:`repro.bench.multichase.chase_curve`).  Such an entry returns
plain values, never the simulator objects it built, since the budget
counts arrays only.

The key is the function plus the exact value of every argument:

* arrays by dtype, shape and bytes.  A sampled fingerprint picks the
  bucket, then the bytes are compared word for word; a compare reads
  each byte once and is an order of magnitude cheaper than a digest.
* ``np.random.Generator`` by its ``bit_generator.state``.  A hit sets
  the generator to the state the call would have left.
* scalars, strings and tuples of them by value (floats by ``hex()``, so
  ``-0.0`` and ``0.0`` differ).

Results are stored and returned read-only, never copied.  The memo owns
a read-only copy of every key array, shared with any equal array it
already holds, so a kernel fed a generator's output costs no second
copy.  Its bytes stay within :data:`BUDGET_BYTES`, evicting the least
recently used entries; an entry larger than the budget is not stored.

A memoised function must not write its arguments, and its result must
depend on nothing but them.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
from collections import Counter, OrderedDict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Bytes the memo may hold: keys and results, each array counted once.
#: The full-grid dwt2d image and its transform (256 MiB each) fit.
BUDGET_BYTES = 512 << 20

#: Bytes sampled, evenly spaced, into an array's fingerprint.
FINGERPRINT_SAMPLES = 256

#: Bytes compared per step: the temporary stays cache-sized, and a
#: mismatch stops the compare early.
COMPARE_BLOCK = 1 << 20

_CURRENT: contextvars.ContextVar[Optional["Memo"]] = contextvars.ContextVar(
    "repro_memo", default=None
)


def _words(array: np.ndarray) -> np.ndarray:
    """The bytes of contiguous *array* as a flat vector of words."""
    flat = array.reshape(-1).view(np.uint8)
    return flat.view(np.uint64) if flat.size % 8 == 0 else flat


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether equal-sized contiguous arrays hold the same bytes."""
    if a is b:
        return True
    x, y = _words(a), _words(b)
    step = COMPARE_BLOCK // x.itemsize
    return all(
        np.array_equal(x[i : i + step], y[i : i + step])
        for i in range(0, x.size, step)
    )


def _fingerprint(array: np.ndarray) -> Tuple[str, Tuple[int, ...], int]:
    flat = array.reshape(-1).view(np.uint8)
    stride = max(1, flat.size // FINGERPRINT_SAMPLES)
    return array.dtype.str, array.shape, hash(flat[::stride].tobytes())


def _rng_state(rng: np.random.Generator) -> Any:
    """A hashable form of a generator's ``bit_generator.state`` dict."""
    def freeze(value):
        if isinstance(value, dict):
            return tuple((k, freeze(v)) for k, v in sorted(value.items()))
        return value

    return freeze(rng.bit_generator.state)


def _scalar_key(value: Any) -> Any:
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, tuple):
        return tuple(_scalar_key(v) for v in value)
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


def _arrays_of(value: Any) -> List[np.ndarray]:
    if isinstance(value, tuple):
        return [a for v in value for a in _arrays_of(v)]
    return [value] if isinstance(value, np.ndarray) else []


class _Entry:
    __slots__ = ("bucket", "arrays", "rng_after", "value")

    def __init__(self, bucket, arrays, rng_after, value):
        self.bucket = bucket
        self.arrays = arrays
        self.rng_after = rng_after
        self.value = value

    def owned(self) -> List[np.ndarray]:
        """The distinct arrays the entry holds: its keys and results."""
        return list({id(a): a for a in [*self.arrays,
                                         *_arrays_of(self.value)]}.values())


class Memo:
    """One run's memo: buckets of entries, LRU-ordered, byte-bounded."""

    def __init__(self):
        #: Bytes held, each array counted once.
        self.nbytes = 0
        #: Hits and misses per memoised function (``module.qualname``).
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()
        self._buckets: Dict[Any, List[_Entry]] = {}
        self._lru: "OrderedDict[int, _Entry]" = OrderedDict()
        # Every array the memo holds, by fingerprint, and the number of
        # entries holding each (by id).
        self._pool: Dict[Any, List[np.ndarray]] = {}
        self._refs: Dict[int, int] = {}

    def call(self, fn: Callable, name: str, args: Tuple) -> Any:
        """*fn(*args)*, from the memo when an equal call is held."""
        parts: List[Any] = [fn]
        arrays: List[np.ndarray] = []
        rngs: List[np.random.Generator] = []
        for arg in args:
            if isinstance(arg, np.ndarray):
                arrays.append(np.ascontiguousarray(arg))
                parts.append(_fingerprint(arrays[-1]))
            elif isinstance(arg, np.random.Generator):
                rngs.append(arg)
                parts.append(("rng", _rng_state(arg)))
            else:
                parts.append(_scalar_key(arg))
        bucket = tuple(parts)
        for entry in self._buckets.get(bucket, ()):
            if all(map(_same_bytes, entry.arrays, arrays)):
                self.hits[name] += 1
                self._lru.move_to_end(id(entry))
                for rng, state in zip(rngs, entry.rng_after):
                    rng.bit_generator.state = state
                return entry.value
        self.misses[name] += 1
        value = _frozen(fn(*args),
                        [a for a in args if isinstance(a, np.ndarray)])
        self._store(_Entry(bucket, arrays,
                           [rng.bit_generator.state for rng in rngs], value))
        return value

    # -- storage --------------------------------------------------------

    def _store(self, entry: _Entry) -> None:
        """Hold *entry*, its key arrays as read-only copies shared with
        equal arrays already held, then evict the least recently used
        entries down to the budget."""
        held = [self._held(a) for a in entry.arrays]
        entry.arrays = [a if mine is None else mine
                        for a, mine in zip(entry.arrays, held)]
        if sum(a.nbytes for a in entry.owned()) > BUDGET_BYTES:
            return
        for i, mine in enumerate(held):
            if mine is None:
                entry.arrays[i] = entry.arrays[i].copy()
                entry.arrays[i].flags.writeable = False
        for array in entry.owned():
            if id(array) not in self._refs:
                self._refs[id(array)] = 0
                self._pool.setdefault(_fingerprint(array), []).append(array)
                self.nbytes += array.nbytes
            self._refs[id(array)] += 1
        self._buckets.setdefault(entry.bucket, []).append(entry)
        self._lru[id(entry)] = entry
        while self.nbytes > BUDGET_BYTES:
            self._evict(next(iter(self._lru.values())))

    def _held(self, array: np.ndarray) -> Optional[np.ndarray]:
        """The memo's own array with *array*'s bytes, if it holds one."""
        for mine in self._pool.get(_fingerprint(array), ()):
            if _same_bytes(mine, array):
                return mine
        return None

    def _evict(self, entry: _Entry) -> None:
        del self._lru[id(entry)]
        bucket = self._buckets[entry.bucket]
        bucket.remove(entry)
        if not bucket:
            del self._buckets[entry.bucket]
        for array in entry.owned():
            self._refs[id(array)] -= 1
            if self._refs[id(array)] == 0:
                del self._refs[id(array)]
                fingerprint = _fingerprint(array)
                pool = [a for a in self._pool[fingerprint] if a is not array]
                if pool:
                    self._pool[fingerprint] = pool
                else:
                    del self._pool[fingerprint]
                self.nbytes -= array.nbytes


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
