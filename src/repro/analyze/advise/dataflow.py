"""Forward dataflow over one function's CFG.

The interpreter runs a classic worklist fixpoint with six state
components:

* ``env`` — reaching definitions joined into one abstract value per
  name (a points-to map for buffer handles and the helper values the
  HIP surface threads around them);
* ``cpu_written`` — *may* have been written by the CPU (union join):
  origins touched through ``.np[...] = ``, ``runCpuKernel`` write
  accesses, ``touch(..., "cpu")``, or container mutation;
* ``gpu_warm`` — *must* already be mapped into the GPU page table on
  every path (intersection join): origins a GPU kernel or an SDMA copy
  has definitely touched.  First-touch hazards and predicted fault
  storms key off "not definitely warm";
* ``freed`` — names that *may* have been passed to a free call since
  they were last bound (union join);
* ``pending`` — asynchronous work (launches, async copies) that *may*
  still be in flight: no synchronization on some path since (union
  join).  Work that wraps around a loop's back edge is marked as
  carried by that loop: the sync rules judge one iteration at a time,
  so it counts again only after the loop exits.  ``except`` handlers
  start with none: a raised runtime error has drained or aborted the
  queue;
* ``owned`` — names that *may* own an allocation: bound directly to an
  allocator call with a literal allocator, and neither rebound nor
  returned since (union join).

After the fixpoint converges, one emit pass walks the statement nodes
in program order and records :class:`Event` records — allocations,
CPU writes, kernel launches (with each access's warm/written status at
that point), copies, and synchronizations — which
:mod:`repro.analyze.advise.checks` consumes and
:mod:`repro.analyze.advise.summaries` replays at call sites.  The same
pass records the lifetime facts the ``lint.*`` rules read
(:mod:`repro.analyze.advise.lint`): frees, uses of freed names, host
accesses, owning binds, and the owned names still unfreed at exit.
These are intra-function facts and are never replayed.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .cfg import CFG, Node, build_cfg
from .values import (
    TOP,
    AccessVal,
    BufVal,
    ListVal,
    NumVal,
    Origin,
    ParamVal,
    SpecVal,
    StrVal,
    StreamVal,
    TupleVal,
    join,
    origins_of,
    substitute,
)

#: numpy dtype attribute -> element size in bytes (for size folding).
DTYPE_SIZES: Dict[str, int] = {
    "uint8": 1, "int8": 1, "float16": 2, "int16": 2, "uint16": 2,
    "float32": 4, "int32": 4, "uint32": 4,
    "float64": 8, "int64": 8, "uint64": 8,
}

#: Direct memory-manager methods -> allocator family.
DIRECT_ALLOCATORS: Dict[str, str] = {
    "hip_malloc": "hipMalloc",
    "hipMalloc": "hipMalloc",
    "hip_host_malloc": "hipHostMalloc",
    "hipHostMalloc": "hipHostMalloc",
    "hip_malloc_managed": "hipMallocManaged",
    "hipMallocManaged": "hipMallocManaged",
    "malloc": "malloc",
    "managed_static": "managed_static",
}

#: Foldable binary operators on constant numbers.
_BINOPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.FloorDiv: operator.floordiv, ast.Div: operator.truediv,
    ast.Mod: operator.mod, ast.Pow: operator.pow,
    ast.LShift: lambda a, b: int(a) << int(b),
    ast.RShift: lambda a, b: int(a) >> int(b),
}

#: Synchronization calls -> the sync event's kind.
SYNC_KINDS = {
    "hipDeviceSynchronize": "device",
    "hipStreamSynchronize": "stream",
    "hipEventSynchronize": "event",
}

#: Container methods that imply a CPU write to the receiving buffer.
CPU_WRITE_METHODS = frozenset({"extend", "append", "push_back", "fill"})

#: Allocator spellings (call names, or ``array(..., allocator=...)``
#: literals) whose result a name owns, and the memory model each
#: belongs to.  ``managed_static`` is absent on purpose: statics cannot
#: be freed, so they are exempt from lifetime tracking.
OWNING_MODELS: Dict[str, str] = {
    "hipMalloc": "explicit", "hipHostMalloc": "explicit",
    "hipHostRegister": "explicit", "malloc+register": "explicit",
    "hipMallocManaged": "managed", "malloc": "host",
}

#: Deallocation spellings: the HIP call and the memory-manager method.
FREE_CALLS = frozenset({"hipFree", "free"})

#: Calls that create a runtime/APU: a function calling one owns the
#: memory arena and is accountable for leaks.
RUNTIME_FACTORIES = frozenset({"make_runtime", "make_apu"})

#: Calls that enqueue asynchronous work.
ASYNC_CALLS = frozenset({"launchKernel", "hipMemcpyAsync", "run_gpu"})

#: Calls that drain it (hipMemcpy is synchronous on the default stream).
SYNC_CALLS = frozenset({
    "hipDeviceSynchronize", "hipStreamSynchronize", "hipEventSynchronize",
    "synchronize", "device_synchronize", "hipMemcpy",
})

#: Host-side compute that reads buffers on the host timeline.
HOST_COMPUTE_CALLS = frozenset({"runCpuKernel", "run_cpu"})


@dataclass(frozen=True)
class LaunchAccess:
    """One kernel argument at a launch, with its state at that point."""

    value: object  #: BufVal / ParamVal / TOP
    mode: str
    warm: bool  #: definitely GPU-mapped before this launch
    cpu_written: bool  #: may have been CPU-written before this launch


@dataclass(frozen=True)
class Event:
    """One dataflow fact, attributed to the function that executed it."""

    #: "alloc" | "cpu_write" | "launch" | "copy" | "sync", plus the
    #: lifetime facts "free" | "use" | "host" | "bind" | "unfreed".
    kind: str
    line: int
    function: str
    loops: Tuple[int, ...] = ()  #: enclosing loop ids, function-local
    via_summary: bool = False  #: replayed out of a callee's summary
    buf: object = None  #: alloc / cpu_write payload
    kernel: str = ""  #: launch: kernel name
    accesses: Tuple[LaunchAccess, ...] = ()
    #: launch: True/False when the stream is known, None when it is not.
    stream_default: Optional[bool] = True
    dst: object = None  #: copy endpoints
    src: object = None
    size_bytes: Optional[int] = None
    is_async: bool = False
    sync_kind: str = ""  #: sync: "device" | "stream" | "event"
    #: free / use / bind / unfreed: the handle's name; host: the name
    #: read through ``.np``, or "" for host compute.
    name: str = ""
    model: str = ""  #: bind: memory model of the allocator
    prior_models: FrozenSet[str] = frozenset()  #: bind: models owned before
    freed_at: Optional[int] = None  #: free / use: earliest prior free
    pending_at: Optional[int] = None  #: free / host: earliest pending work


@dataclass
class FunctionResult:
    """One function's summary: its events, return value, and formals."""

    qualname: str
    file: str
    events: List[Event] = field(default_factory=list)
    ret: object = None
    param_names: List[str] = field(default_factory=list)
    param_defaults: Dict[int, object] = field(default_factory=dict)
    xnack_off: bool = False
    owns_runtime: bool = False  #: calls make_runtime / make_apu
    cfg: Optional[CFG] = None


@dataclass(slots=True)
class AbsState:
    """The product state flowing along CFG edges."""

    env: Dict[str, object] = field(default_factory=dict)
    cpu_written: FrozenSet[Origin] = frozenset()
    gpu_warm: FrozenSet[Origin] = frozenset()
    freed: FrozenSet[Tuple[str, int]] = frozenset()  #: (name, free line)
    #: (line, loops it was issued in, loops whose back edge it wrapped)
    pending: FrozenSet[Tuple[int, Tuple[int, ...], FrozenSet[int]]] = (
        frozenset()
    )
    owned: FrozenSet[Tuple[str, int, str]] = frozenset()  #: (name, line, model)

    def copy(self) -> "AbsState":
        return replace(self, env=dict(self.env))

    def merge(self, other: "AbsState") -> bool:
        """Join *other* into self; True when anything changed."""
        changed = False
        for name, value in other.env.items():
            joined = join(self.env.get(name), value)
            if joined != self.env.get(name):
                self.env[name] = joined
                changed = True
        for slot in ("cpu_written", "freed", "pending", "owned"):
            union = getattr(self, slot) | getattr(other, slot)
            if union != getattr(self, slot):
                setattr(self, slot, union)
                changed = True
        warm = self.gpu_warm & other.gpu_warm
        if warm != self.gpu_warm:
            self.gpu_warm = warm
            changed = True
        return changed


class _Interp:
    """Abstract interpreter for one function body."""

    def __init__(
        self,
        result: FunctionResult,
        cfg: CFG,
        summaries: Dict[str, FunctionResult],
    ) -> None:
        self.result = result
        self.cfg = cfg
        self.summaries = summaries
        self._node: Optional[Node] = None  # node being transferred
        self._emit = False
        self._heads = {loop.head: i for i, loop in enumerate(cfg.loops)}

    # -- event plumbing -------------------------------------------------

    def _loops(self) -> Tuple[int, ...]:
        assert self._node is not None
        return self.cfg.loops_of.get(self._node.id, ())

    def _record(self, kind: str, line: int, **fields) -> None:
        """Record one event at the node being emitted."""
        if self._emit:
            self.result.events.append(
                Event(kind=kind, line=line, function=self.result.qualname,
                      loops=self._loops(), **fields)
            )

    def _replay(self, event: Event, **changes) -> None:
        """Record a callee's event, re-bound at this call site."""
        if self._emit:
            changes.setdefault("loops", ())
            self.result.events.append(
                replace(event, via_summary=True, **changes)
            )

    def _line(self, expr: ast.AST) -> int:
        line = getattr(expr, "lineno", None)
        if line is None and self._node is not None:
            line = self._node.line
        return line or 0

    # -- transfer -------------------------------------------------------

    def transfer(self, node: Node, state: AbsState, emit: bool) -> AbsState:
        self._node, self._emit = node, emit
        if node.id in self.cfg.handlers:
            state.pending = frozenset()
        loop = self._heads.get(node.id)
        if loop is not None:
            # Work issued inside this loop that reaches its head came
            # around a back edge.
            state.pending = frozenset(
                (line, loops, wrapped | {loop}) if loop in loops
                else (line, loops, wrapped)
                for line, loops, wrapped in state.pending
            )
        if node.kind == "header":
            if node.expr is not None:
                value = self.eval(node.expr, state)
                if node.bind is not None:
                    bound = value
                    if node.bind_mode == "iter":
                        bound = self._element_of(value)
                    self._bind_target(node.bind, bound, state)
            return state
        if node.kind != "stmt" or node.stmt is None:
            return state
        stmt = node.stmt
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, state)
            for target in stmt.targets:
                self._assign(target, value, stmt.value, state)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value = self.eval(stmt.value, state)
            self._assign(stmt.target, value, stmt.value, state)
        elif isinstance(stmt, ast.AugAssign):
            self.eval(stmt.value, state)
            self._augmented(stmt, state)
        elif isinstance(stmt, ast.Return):
            value = self.eval(stmt.value, state) if stmt.value else None
            self.result.ret = join(self.result.ret, value)
            if stmt.value is not None:
                # Returning a handle hands its ownership to the caller.
                returned = {
                    n.id for n in ast.walk(stmt.value)
                    if isinstance(n, ast.Name)
                }
                state.owned = frozenset(
                    o for o in state.owned if o[0] not in returned
                )
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value, state)
        elif isinstance(stmt, (ast.Assert, ast.Raise, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child, state)
        return state

    @staticmethod
    def _element_of(value: object) -> object:
        """The element value of an iterated abstract value."""
        if isinstance(value, ListVal):
            return value.elem if value.elem is not None else TOP
        if isinstance(value, TupleVal):
            elem: object = None
            for e in value.elems:
                elem = join(elem, e)
            return elem if elem is not None else TOP
        return TOP

    def _bind_target(
        self, target: ast.expr, value: object, state: AbsState
    ) -> None:
        if isinstance(target, ast.Name):
            state.env[target.id] = value
            self._rebind(target.id, state)
        elif isinstance(target, (ast.Tuple, ast.List)):
            elems: Sequence[object]
            if isinstance(value, TupleVal) and len(value.elems) == len(
                target.elts
            ):
                elems = value.elems
            else:
                elems = [self._element_of(value)] * len(target.elts)
            for t, v in zip(target.elts, elems):
                self._bind_target(t, v, state)
        # attribute/subscript targets are writes, handled by _assign

    def _assign(
        self,
        target: ast.expr,
        value: object,
        value_expr: ast.expr,
        state: AbsState,
    ) -> None:
        if isinstance(target, (ast.Name, ast.Tuple, ast.List)):
            # Tuple targets unpack a tuple-valued right-hand side.
            if isinstance(target, (ast.Tuple, ast.List)) and isinstance(
                value_expr, ast.Tuple
            ) and len(target.elts) == len(value_expr.elts):
                for t, e in zip(target.elts, value_expr.elts):
                    self._assign(t, self.eval(e, state), e, state)
                return
            model = (
                self._owned_model(value_expr)
                if isinstance(target, ast.Name) else None
            )
            prior = frozenset(
                m for n, _, m in state.owned if model and n == target.id
            )
            self._bind_target(target, value, state)
            if model:  # the name owns a fresh allocation
                line = self._line(value_expr)
                state.owned = state.owned | {(target.id, line, model)}
                self._record("bind", line, name=target.id, model=model,
                             prior_models=prior)
            return
        if isinstance(target, ast.Subscript):
            # `buf.np[...] = v` / `buf[...] = v`: a CPU store.
            self._cpu_write(
                self.eval(target.value, state), self._line(target), state
            )

    def _augmented(self, stmt: ast.AugAssign, state: AbsState) -> None:
        if isinstance(stmt.target, ast.Name):
            name = stmt.target.id
            current = state.env.get(name)
            value = self.eval(stmt.value, state)
            folded = self._fold_binop(type(stmt.op), current, value)
            state.env[name] = folded
            self._rebind(name, state)
        elif isinstance(stmt.target, ast.Subscript):
            self._cpu_write(
                self.eval(stmt.target.value, state),
                self._line(stmt.target),
                state,
            )

    # -- lifetime facts -------------------------------------------------

    @staticmethod
    def _rebind(name: str, state: AbsState) -> None:
        """A new binding ends the old handle's story under *name*."""
        state.freed = frozenset(f for f in state.freed if f[0] != name)
        state.owned = frozenset(o for o in state.owned if o[0] != name)

    def _owned_model(self, expr: ast.expr) -> Optional[str]:
        """The memory model of a literal allocator call, else None."""
        if not isinstance(expr, ast.Call):
            return None
        name = self._call_name(expr)
        if name == "array" and not self._is_numpy_receiver(expr):
            alloc = self._arg(expr, 2, "allocator")
            if alloc is None:
                return "explicit"  # array() defaults to hipMalloc
            if isinstance(alloc, ast.Constant):
                return OWNING_MODELS.get(str(alloc.value))
            return None  # dynamic allocator: not tracked
        return OWNING_MODELS.get(name or "")

    @staticmethod
    def _freed_at(name: str, state: AbsState) -> Optional[int]:
        return min((ln for n, ln in state.freed if n == name), default=None)

    def _free(self, expr: ast.Call, state: AbsState) -> object:
        """``hipFree(name)`` / ``mm.free(name)``: the name is released."""
        first = expr.args[0] if expr.args else None
        name = first.id if isinstance(first, ast.Name) else ""
        # The freed name itself is not a use (a second free is reported
        # as a double free).
        for arg in expr.args[1 if name else 0:]:
            self.eval(arg, state)
        for keyword in expr.keywords:
            self.eval(keyword.value, state)
        line = self._line(expr)
        freed_at = self._freed_at(name, state) if name else None
        self._record("free", line, name=name, freed_at=freed_at,
                     pending_at=self._pending_at(state))
        if name and freed_at is None:
            state.freed = state.freed | {(name, line)}
        return TOP

    def _use(self, expr: ast.expr, state: AbsState) -> None:
        """A name passed to a call or dereferenced: a use of its handle."""
        if not isinstance(expr, ast.Name):
            return
        freed_at = self._freed_at(expr.id, state)
        if freed_at is not None:
            self._record("use", self._line(expr), name=expr.id,
                         freed_at=freed_at)

    def _host(self, expr: ast.expr, name: str, state: AbsState) -> None:
        """A host-timeline access, racing any pending async work."""
        self._record("host", self._line(expr), name=name,
                     pending_at=self._pending_at(state))

    def _pending_at(self, state: AbsState) -> Optional[int]:
        """Earliest pending work issued in this iteration or before the
        enclosing loops, ignoring work carried from earlier iterations."""
        here = set(self._loops())
        return min(
            (line for line, _, wrapped in state.pending
             if not wrapped & here),
            default=None,
        )

    def _cpu_write(self, value: object, line: int, state: AbsState) -> None:
        origins = origins_of(value)
        if origins or isinstance(value, ParamVal):
            state.cpu_written = state.cpu_written | origins
            self._record("cpu_write", line, buf=value)

    # -- expression evaluation ------------------------------------------

    def eval(self, expr: ast.expr, state: AbsState) -> object:
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, str):
                return StrVal.of(expr.value)
            if isinstance(expr.value, bool):
                return TOP
            if isinstance(expr.value, (int, float)):
                return NumVal(expr.value)
            return TOP
        if isinstance(expr, ast.Name):
            return state.env.get(expr.id, TOP)
        if isinstance(expr, ast.Attribute):
            return self._attribute(expr, state)
        if isinstance(expr, ast.Call):
            return self._call(expr, state)
        if isinstance(expr, ast.BinOp):
            left = self.eval(expr.left, state)
            right = self.eval(expr.right, state)
            return self._fold_binop(type(expr.op), left, right)
        if isinstance(expr, ast.UnaryOp):
            value = self.eval(expr.operand, state)
            if isinstance(expr.op, ast.USub) and isinstance(value, NumVal):
                return NumVal(-value.value)
            return TOP
        if isinstance(expr, ast.Tuple):
            return TupleVal(tuple(self.eval(e, state) for e in expr.elts))
        if isinstance(expr, ast.List):
            elem: object = None
            for e in expr.elts:
                elem = join(elem, self.eval(e, state))
            return ListVal(elem)
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            return ListVal(self.eval(expr.elt, state))
        if isinstance(expr, ast.IfExp):
            self.eval(expr.test, state)
            return join(
                self.eval(expr.body, state), self.eval(expr.orelse, state)
            )
        if isinstance(expr, ast.Subscript):
            return self._subscript(expr, state)
        if isinstance(expr, ast.BoolOp):
            value: object = None
            for e in expr.values:
                value = join(value, self.eval(e, state))
            return value if value is not None else TOP
        if isinstance(expr, ast.Compare):
            self.eval(expr.left, state)
            for comp in expr.comparators:
                self.eval(comp, state)
            return TOP
        if isinstance(expr, ast.JoinedStr):
            return TOP
        # Anything else: evaluate children for their effects, yield TOP.
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self.eval(child, state)
        return TOP

    @staticmethod
    def _fold_binop(op: type, left: object, right: object) -> object:
        fold = _BINOPS.get(op)
        if fold is None or not (
            isinstance(left, NumVal) and isinstance(right, NumVal)
        ):
            return TOP
        try:
            return NumVal(fold(left.value, right.value))
        except (ZeroDivisionError, OverflowError, ValueError, TypeError):
            return TOP

    def _attribute(self, expr: ast.Attribute, state: AbsState) -> object:
        self._use(expr.value, state)
        base = self.eval(expr.value, state)
        if (
            expr.attr == "np"
            and isinstance(expr.value, ast.Name)
            and any(o[0] == expr.value.id for o in state.owned)
        ):
            self._host(expr, expr.value.id, state)
        if isinstance(base, BufVal):
            if expr.attr in ("allocation", "np", "data"):
                return base  # views of the same buffer
            if expr.attr == "nbytes":
                sizes = {o.size_bytes for o in base.origins}
                if len(sizes) == 1 and None not in sizes:
                    return NumVal(next(iter(sizes)))
                return TOP
        if isinstance(base, ParamVal) and expr.attr in (
            "allocation", "np", "data"
        ):
            return base  # still the same opaque buffer
        return TOP

    def _subscript(self, expr: ast.Subscript, state: AbsState) -> object:
        base = self.eval(expr.value, state)
        index = self.eval(expr.slice, state)
        if isinstance(base, TupleVal) and isinstance(index, NumVal):
            i = index.as_int
            if 0 <= i < len(base.elems):
                return base.elems[i]
        if isinstance(base, ListVal):
            return base.elem if base.elem is not None else TOP
        return TOP

    # -- calls ----------------------------------------------------------

    @staticmethod
    def _call_name(expr: ast.Call) -> Optional[str]:
        if isinstance(expr.func, ast.Attribute):
            return expr.func.attr
        if isinstance(expr.func, ast.Name):
            return expr.func.id
        return None

    def _arg(self, expr: ast.Call, index: int, kw: Optional[str] = None):
        if index < len(expr.args):
            return expr.args[index]
        if kw is not None:
            for keyword in expr.keywords:
                if keyword.arg == kw:
                    return keyword.value
        return None

    def _kwarg(self, expr: ast.Call, name: str):
        for keyword in expr.keywords:
            if keyword.arg == name:
                return keyword.value
        return None

    def _call(self, expr: ast.Call, state: AbsState) -> object:
        name = self._call_name(expr)
        if name in FREE_CALLS:
            return self._free(expr, state)
        for arg in expr.args + [k.value for k in expr.keywords]:
            self._use(arg, state)
        value = self._dispatch(expr, name, state)
        if name in RUNTIME_FACTORIES:
            self.result.owns_runtime = True
        if name in ASYNC_CALLS:
            state.pending = state.pending | {
                (self._line(expr), self._loops(), frozenset())
            }
        elif name in SYNC_CALLS:
            state.pending = frozenset()
        elif name in HOST_COMPUTE_CALLS:
            self._host(expr, "", state)
        return value

    def _dispatch(
        self, expr: ast.Call, name: Optional[str], state: AbsState
    ) -> object:
        receiver = (
            self.eval(expr.func.value, state)
            if isinstance(expr.func, ast.Attribute)
            else None
        )

        if name == "array" and not self._is_numpy_receiver(expr):
            return self._alloc_array(expr, state)
        if name in DIRECT_ALLOCATORS and isinstance(expr.func, ast.Attribute):
            return self._alloc_direct(expr, name, state)
        if name == "UnifiedVector":
            return self._alloc_vector(expr, state)
        if name == "BufferAccess":
            return self._buffer_access(expr, state)
        if name == "KernelSpec":
            return self._kernel_spec(expr, state)
        if name == "launchKernel":
            return self._launch(expr, state, gpu=True)
        if name == "runCpuKernel":
            return self._launch(expr, state, gpu=False)
        if name in ("hipMemcpy", "hipMemcpyAsync"):
            return self._memcpy(expr, state, name == "hipMemcpyAsync")
        if name == "touch":
            return self._touch(expr, state)
        if name in SYNC_KINDS:
            self._eval_args(expr, state)
            self._record("sync", self._line(expr), sync_kind=SYNC_KINDS[name])
            return TOP
        if name == "hipStreamCreate":
            self._eval_args(expr, state)
            return StreamVal(default=False)
        if name == "make_runtime":
            self._eval_args(expr, state)
            xnack = self._kwarg(expr, "xnack")
            if isinstance(xnack, ast.Constant) and xnack.value is False:
                self.result.xnack_off = True
            return TOP
        if name in ("min", "max") and expr.args:
            values = [self.eval(a, state) for a in expr.args]
            if all(isinstance(v, NumVal) for v in values):
                pick = min if name == "min" else max
                return NumVal(pick(v.value for v in values))
            return TOP
        if (
            name in CPU_WRITE_METHODS
            and receiver is not None
            and isinstance(receiver, (BufVal, ParamVal))
        ):
            self._eval_args(expr, state)
            self._cpu_write(receiver, self._line(expr), state)
            return TOP
        if (
            name == "append"
            and isinstance(expr.func, ast.Attribute)
            and isinstance(expr.func.value, ast.Name)
            and isinstance(state.env.get(expr.func.value.id), ListVal)
        ):
            item = self.eval(expr.args[0], state) if expr.args else TOP
            current = state.env[expr.func.value.id]
            state.env[expr.func.value.id] = ListVal(join(current.elem, item))
            return TOP
        if name in self.summaries:
            return self._user_call(expr, self.summaries[name], state)
        self._eval_args(expr, state)
        return TOP

    @staticmethod
    def _is_numpy_receiver(expr: ast.Call) -> bool:
        return (
            isinstance(expr.func, ast.Attribute)
            and isinstance(expr.func.value, ast.Name)
            and expr.func.value.id in ("np", "numpy")
        )

    def _eval_args(self, expr: ast.Call, state: AbsState) -> List[object]:
        values = [self.eval(a, state) for a in expr.args]
        values.extend(self.eval(k.value, state) for k in expr.keywords)
        return values

    # -- allocation -----------------------------------------------------

    def _literal_name(self, expr: ast.Call) -> str:
        kw = self._kwarg(expr, "name")
        if isinstance(kw, ast.Constant) and isinstance(kw.value, str):
            return kw.value
        return ""

    def _families_of(self, value: object) -> Set[str]:
        if isinstance(value, StrVal):
            return set(value.options)
        if isinstance(value, ParamVal):
            return {f"@param{value.index}"}
        return {"?"}

    def _make_buffer(
        self,
        expr: ast.Call,
        families: Set[str],
        size: Optional[int],
        label: str,
    ) -> BufVal:
        line = self._line(expr)
        buf = BufVal(frozenset(
            Origin(line=line, family=family, size_bytes=size, name=label)
            for family in families
        ))
        self._record("alloc", line, buf=buf, size_bytes=size)
        return buf

    def _alloc_array(self, expr: ast.Call, state: AbsState) -> BufVal:
        shape = self.eval(expr.args[0], state) if expr.args else TOP
        dtype_size = self._dtype_size(self._arg(expr, 1, "dtype"))
        alloc_expr = self._arg(expr, 2, "allocator")
        if alloc_expr is None:
            families = {"hipMalloc"}  # array() defaults to hipMalloc
        else:
            families = self._families_of(self.eval(alloc_expr, state))
        size = self._shape_size(shape, dtype_size)
        for keyword in expr.keywords:
            self.eval(keyword.value, state)
        return self._make_buffer(
            expr, families, size, self._literal_name(expr)
        )

    @staticmethod
    def _shape_size(shape: object, dtype_size: Optional[int]) -> Optional[int]:
        if dtype_size is None:
            return None
        if isinstance(shape, NumVal):
            return shape.as_int * dtype_size
        if isinstance(shape, TupleVal) and all(
            isinstance(e, NumVal) for e in shape.elems
        ):
            count = 1
            for e in shape.elems:
                count *= e.as_int
            return count * dtype_size
        return None

    @staticmethod
    def _dtype_size(dtype_expr: Optional[ast.expr]) -> Optional[int]:
        if dtype_expr is None:
            return 4  # runtime.array defaults to np.float32
        if isinstance(dtype_expr, ast.Attribute):
            return DTYPE_SIZES.get(dtype_expr.attr)
        if isinstance(dtype_expr, ast.Name):
            return DTYPE_SIZES.get(dtype_expr.id)
        return None

    def _alloc_direct(
        self, expr: ast.Call, name: str, state: AbsState
    ) -> BufVal:
        size_value = self.eval(expr.args[0], state) if expr.args else TOP
        size = size_value.as_int if isinstance(size_value, NumVal) else None
        for keyword in expr.keywords:
            self.eval(keyword.value, state)
        return self._make_buffer(
            expr, {DIRECT_ALLOCATORS[name]}, size, self._literal_name(expr)
        )

    def _alloc_vector(self, expr: ast.Call, state: AbsState) -> BufVal:
        self._eval_args(expr, state)
        alloc_expr = self._arg(expr, 2, "allocator")
        if alloc_expr is None:
            families = {"malloc"}  # UnifiedVector defaults to malloc
        else:
            families = self._families_of(self.eval(alloc_expr, state))
        return self._make_buffer(expr, families, None, "std::vector")

    # -- kernels --------------------------------------------------------

    def _buffer_access(self, expr: ast.Call, state: AbsState) -> AccessVal:
        buf = self.eval(expr.args[0], state) if expr.args else TOP
        mode_expr = self._arg(expr, 1, "mode")
        mode = "read"
        if isinstance(mode_expr, ast.Constant):
            mode = str(mode_expr.value)
        for keyword in expr.keywords:
            self.eval(keyword.value, state)
        return AccessVal(buf, mode)

    def _kernel_spec(self, expr: ast.Call, state: AbsState) -> SpecVal:
        name = "?"
        if expr.args and isinstance(expr.args[0], ast.Constant):
            name = str(expr.args[0].value)
        accesses: List[AccessVal] = []
        acc_expr = self._arg(expr, 1, "accesses")
        if isinstance(acc_expr, (ast.List, ast.Tuple)):
            for elt in acc_expr.elts:
                value = self.eval(elt, state)
                accesses.append(
                    value
                    if isinstance(value, AccessVal)
                    else AccessVal(TOP, "?")
                )
        elif acc_expr is not None:
            value = self.eval(acc_expr, state)
            if isinstance(value, ListVal) and isinstance(
                value.elem, AccessVal
            ):
                accesses.append(value.elem)
            elif isinstance(value, AccessVal):
                accesses.append(value)
        for keyword in expr.keywords:
            self.eval(keyword.value, state)
        return SpecVal(name, tuple(accesses))

    def _launch(
        self, expr: ast.Call, state: AbsState, gpu: bool
    ) -> object:
        spec = self.eval(expr.args[0], state) if expr.args else TOP
        stream_default: Optional[bool] = True
        stream_expr = self._arg(expr, 1, "stream")
        if stream_expr is not None:
            stream = self.eval(stream_expr, state)
            if isinstance(stream, StreamVal):
                stream_default = stream.default
            elif stream is TOP or isinstance(stream, ParamVal):
                stream_default = None
            if isinstance(stream_expr, ast.Constant) and (
                stream_expr.value is None
            ):
                stream_default = True
        for keyword in expr.keywords:
            if keyword.arg != "stream":
                self.eval(keyword.value, state)
        if not isinstance(spec, SpecVal):
            return TOP
        if not gpu:
            # CPU kernels write buffers on the host timeline.
            for access in spec.accesses:
                if access.mode in ("write", "readwrite", "?"):
                    self._cpu_write(access.buf, self._line(expr), state)
            return TOP
        accesses: List[LaunchAccess] = []
        touched: Set[Origin] = set()
        for access in spec.accesses:
            origins = origins_of(access.buf)
            warm = bool(origins) and origins <= state.gpu_warm
            written = bool(origins & state.cpu_written)
            accesses.append(
                LaunchAccess(access.buf, access.mode, warm, written)
            )
            touched |= origins
        self._record("launch", self._line(expr), kernel=spec.name,
                     accesses=tuple(accesses), stream_default=stream_default)
        state.gpu_warm = state.gpu_warm | frozenset(touched)
        return TOP

    def _memcpy(
        self, expr: ast.Call, state: AbsState, is_async: bool
    ) -> object:
        dst = self.eval(expr.args[0], state) if len(expr.args) > 0 else TOP
        src = self.eval(expr.args[1], state) if len(expr.args) > 1 else TOP
        size_expr = self._arg(expr, 2, "nbytes")
        size: Optional[int] = None
        if size_expr is not None:
            value = self.eval(size_expr, state)
            if isinstance(value, NumVal):
                size = value.as_int
        if size is None:
            sizes = {
                o.size_bytes
                for o in origins_of(dst) | origins_of(src)
                if o.size_bytes is not None
            }
            if len(sizes) == 1:
                size = next(iter(sizes))
        for keyword in expr.keywords:
            self.eval(keyword.value, state)
        self._record("copy", self._line(expr), dst=dst, src=src,
                     size_bytes=size, is_async=is_async)
        # SDMA touches both endpoints' pages: they are mapped afterwards.
        state.gpu_warm = (
            state.gpu_warm | origins_of(dst) | origins_of(src)
        )
        return TOP

    def _touch(self, expr: ast.Call, state: AbsState) -> object:
        buf = self.eval(expr.args[0], state) if expr.args else TOP
        device = None
        device_expr = self._arg(expr, 1, "device")
        if isinstance(device_expr, ast.Constant):
            device = str(device_expr.value)
        if device == "cpu":
            self._cpu_write(buf, self._line(expr), state)
        elif device == "gpu":
            state.gpu_warm = state.gpu_warm | origins_of(buf)
        return TOP

    # -- interprocedural ------------------------------------------------

    def _user_call(
        self, expr: ast.Call, summary: FunctionResult, state: AbsState
    ) -> object:
        bindings: Dict[int, object] = dict(summary.param_defaults)
        for i, arg in enumerate(expr.args):
            if not isinstance(arg, ast.Starred):
                bindings[i] = self.eval(arg, state)
        for keyword in expr.keywords:
            value = self.eval(keyword.value, state)
            if keyword.arg in summary.param_names:
                bindings[summary.param_names.index(keyword.arg)] = value
        return self.apply_summary(summary, bindings, state, expr)

    def apply_summary(
        self,
        summary: FunctionResult,
        bindings: Dict[int, object],
        state: AbsState,
        expr: ast.Call,
    ) -> object:
        """Replay a callee's events against the caller's state."""
        for event in summary.events:
            if event.kind == "alloc":
                self._replay(event, buf=substitute(event.buf, bindings))
            elif event.kind == "cpu_write":
                buf = substitute(event.buf, bindings)
                state.cpu_written = state.cpu_written | origins_of(buf)
                self._replay(event, buf=buf)
            elif event.kind == "launch":
                accesses: List[LaunchAccess] = []
                touched: Set[Origin] = set()
                for access in event.accesses:
                    value = substitute(access.value, bindings)
                    origins = origins_of(value)
                    warm = access.warm or (
                        bool(origins) and origins <= state.gpu_warm
                    )
                    written = access.cpu_written or bool(
                        origins & state.cpu_written
                    )
                    accesses.append(
                        LaunchAccess(value, access.mode, warm, written)
                    )
                    touched |= origins
                self._replay(event, accesses=tuple(accesses))
                state.gpu_warm = state.gpu_warm | frozenset(touched)
            elif event.kind == "copy":
                dst = substitute(event.dst, bindings)
                src = substitute(event.src, bindings)
                self._replay(event, loops=self._loops(), dst=dst, src=src)
                state.gpu_warm = (
                    state.gpu_warm | origins_of(dst) | origins_of(src)
                )
            # sync and lifetime events are intra-function facts; not
            # replayed.
        return substitute(summary.ret, bindings)


def compute_in_states(
    interp: _Interp, cfg: CFG, entry: AbsState
) -> Dict[int, AbsState]:
    """Worklist fixpoint: converged in-state per reached node.

    The iteration cap is a belt-and-braces guard; the lattice has
    finite height (origin sets bounded by allocation sites, numbers
    collapse to TOP on disagreement) and every transfer is monotone,
    so the worklist always drains — the property test in
    ``tests/test_advise_properties.py`` checks stability directly.
    """
    in_states: Dict[int, AbsState] = {cfg.entry: entry}
    worklist: List[int] = [cfg.entry]
    iterations = 0
    limit = 50 * (len(cfg.nodes) + 1)
    while worklist and iterations < limit:
        iterations += 1
        node_id = worklist.pop()
        out = interp.transfer(
            cfg.nodes[node_id], in_states[node_id].copy(), emit=False
        )
        for succ in cfg.succ[node_id]:
            if succ not in in_states:
                in_states[succ] = out.copy()
                worklist.append(succ)
            elif in_states[succ].merge(out):
                worklist.append(succ)
    return in_states


def analyze_function(
    qualname: str,
    body: Sequence[ast.stmt],
    params: Sequence[ast.arg],
    defaults: Dict[int, object],
    file: str,
    summaries: Dict[str, FunctionResult],
    globals_env: Optional[Dict[str, object]] = None,
) -> FunctionResult:
    """Run the fixpoint + emit passes over one function body."""
    result = FunctionResult(
        qualname=qualname,
        file=file,
        param_names=[p.arg for p in params],
        param_defaults=dict(defaults),
    )
    cfg = build_cfg(body)
    result.cfg = cfg
    interp = _Interp(result, cfg, summaries)

    entry_env: Dict[str, object] = dict(globals_env or {})
    for i, p in enumerate(params):
        entry_env[p.arg] = ParamVal(i)

    in_states = compute_in_states(interp, cfg, AbsState(env=entry_env))

    # Emit pass: node ids are creation order, i.e. program order.
    result.ret = None  # recompute cleanly during emission
    for node_id in sorted(in_states):
        node = cfg.nodes[node_id]
        if node.kind in ("stmt", "header"):
            interp.transfer(node, in_states[node_id].copy(), emit=True)
    # Owned names that reach the exit never freed on any path.
    exit_state = in_states.get(cfg.exit)
    if exit_state is not None:
        freed = {name for name, _ in exit_state.freed}
        for name, line, _ in sorted(
            exit_state.owned, key=lambda o: (o[1], o[0])
        ):
            if name not in freed:
                result.events.append(
                    Event(kind="unfreed", line=line, function=qualname,
                          name=name)
                )
    return result
