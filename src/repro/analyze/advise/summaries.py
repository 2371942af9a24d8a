"""Bottom-up interprocedural summarization of one module.

The advisor analyzes whole files: every top-level function and every
method of every top-level class gets its own CFG + dataflow pass (see
:mod:`repro.analyze.advise.dataflow`), in bottom-up call-graph order so
a helper's :class:`~repro.analyze.advise.dataflow.FunctionResult` is
available as a summary when its callers are analyzed.  This is what
lets a finding survive the ``apps/common.py``-style refactor where the
allocation happens in a wrapper: the wrapper's summary carries symbolic
``@param<N>`` origins that the call site resolves.

Calls are resolved by *bare name* within the module (``self._kernel``
and ``_kernel`` both hit ``Class._kernel``); recursion is broken by
simply analyzing a cycle member without its unresolved callee, which
degrades that call to TOP — sound for every check we run.  The module
body itself is analyzed last (qualname ``<module>``) so script-style
files like ``examples/slow_port.py`` work unchanged, and simple
module-level constants (``CHUNK_BYTES = 16 << 20``) are folded and
pre-seeded into every function's entry environment.  Functions nested
anywhere else (``outer.inner``) are analyzed too, after the summarized
ones, but are not summaries themselves.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..findings import Finding, make_finding
from .dataflow import FunctionResult, _Interp, analyze_function
from .values import NumVal, StrVal


@dataclass
class ModuleAnalysis:
    """Every function's dataflow result for one source file."""

    file: str
    #: qualname ("Class.method", "helper", "<module>") -> result.
    functions: Dict[str, FunctionResult] = field(default_factory=dict)
    #: The file's one finding when it did not parse.
    syntax_error: Optional[Finding] = None
    tree: Optional[ast.Module] = None  #: the parsed module, when it parsed


def _fold_expr(expr: ast.expr):
    """Constant-fold a module-level expression to an abstract value."""
    if isinstance(expr, ast.Constant):
        if isinstance(expr.value, str):
            return StrVal.of(expr.value)
        if isinstance(expr.value, bool):
            return None
        if isinstance(expr.value, (int, float)):
            return NumVal(expr.value)
        return None
    if isinstance(expr, ast.BinOp):
        left, right = _fold_expr(expr.left), _fold_expr(expr.right)
        if isinstance(left, NumVal) and isinstance(right, NumVal):
            folded = _Interp._fold_binop(type(expr.op), left, right)
            return folded if isinstance(folded, NumVal) else None
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
        value = _fold_expr(expr.operand)
        if isinstance(value, NumVal):
            return NumVal(-value.value)
    return None


def _module_constants(module: ast.Module) -> Dict[str, object]:
    """Fold simple ``NAME = <const>`` module assignments."""
    constants: Dict[str, object] = {}
    for stmt in module.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        pairs = []
        for target in targets:
            if isinstance(target, ast.Tuple) and isinstance(
                value, ast.Tuple
            ) and len(target.elts) == len(value.elts):
                # CAP, RX, RY, RZ = 0.5, 1.0, 1.0, 4.75
                pairs.extend(zip(target.elts, value.elts))
            else:
                pairs.append((target, value))
        for target, expr in pairs:
            folded = _fold_expr(expr)
            if isinstance(target, ast.Name) and folded is not None:
                constants[target.id] = folded
    return constants


_FuncDef = (ast.FunctionDef, ast.AsyncFunctionDef)


def _gather_functions(
    module: ast.Module,
) -> List[Tuple[str, ast.FunctionDef]]:
    """(qualname, def) for every top-level function and class method."""
    out: List[Tuple[str, ast.FunctionDef]] = []
    for stmt in module.body:
        if isinstance(stmt, _FuncDef):
            out.append((stmt.name, stmt))
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, _FuncDef):
                    out.append((f"{stmt.name}.{item.name}", item))
    return out


def _all_functions(
    node: ast.AST, prefix: str = ""
) -> Iterator[Tuple[str, ast.FunctionDef]]:
    """(dotted qualname, def) for every function under *node*."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _FuncDef + (ast.ClassDef,)):
            qualname = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield qualname, child
            yield from _all_functions(child, qualname + ".")
        else:
            yield from _all_functions(child, prefix)


def _non_self_params(fn: ast.FunctionDef) -> List[ast.arg]:
    args = list(fn.args.posonlyargs) + list(fn.args.args)
    return [a for a in args if a.arg not in ("self", "cls")]


def _param_defaults(fn: ast.FunctionDef) -> Dict[int, object]:
    """index (into non-self params) -> folded default value."""
    all_args = list(fn.args.posonlyargs) + list(fn.args.args)
    defaults = fn.args.defaults
    by_name: Dict[str, object] = {}
    for arg, default in zip(all_args[len(all_args) - len(defaults):],
                            defaults):
        folded = _fold_expr(default)
        if folded is not None:
            by_name[arg.arg] = folded
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            folded = _fold_expr(default)
            if folded is not None:
                by_name[arg.arg] = folded
    params = _non_self_params(fn)
    return {
        i: by_name[p.arg] for i, p in enumerate(params) if p.arg in by_name
    }


def _called_names(fn_body: Sequence[ast.stmt]) -> List[str]:
    return [
        name
        for stmt in fn_body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call) and (name := _Interp._call_name(node))
    ]


def analyze_module(source: str, file: str) -> ModuleAnalysis:
    """Parse *source* and run the dataflow over every function in it."""
    analysis = ModuleAnalysis(file=file)
    try:
        module = ast.parse(source, filename=file)
    except SyntaxError as exc:
        analysis.syntax_error = make_finding(
            "syntax-error", f"cannot parse: {exc.msg or 'syntax error'}",
            file=file, line=exc.lineno or 1,
        )
        return analysis
    analysis.tree = module

    constants = _module_constants(module)
    functions = _gather_functions(module)
    by_bare: Dict[str, str] = {}
    for qualname, fn in functions:
        by_bare[qualname.rsplit(".", 1)[-1]] = qualname
    defs = dict(functions)

    #: bare name -> FunctionResult, the summary table callers consult.
    summaries: Dict[str, FunctionResult] = {}

    visiting: List[str] = []

    def visit(qualname: str) -> None:
        if qualname in analysis.functions or qualname in visiting:
            return  # done, or a recursion cycle (degrade to TOP)
        fn = defs[qualname]
        visiting.append(qualname)
        for callee_bare in _called_names(fn.body):
            callee = by_bare.get(callee_bare)
            if callee is not None and callee != qualname:
                visit(callee)
        visiting.pop()
        result = analyze(qualname, fn)
        analysis.functions[qualname] = result
        summaries[qualname.rsplit(".", 1)[-1]] = result

    def analyze(qualname: str, fn: ast.FunctionDef) -> FunctionResult:
        return analyze_function(
            qualname=qualname,
            body=fn.body,
            params=_non_self_params(fn),
            defaults=_param_defaults(fn),
            file=file,
            summaries=summaries,
            globals_env=constants,
        )

    for qualname, _ in functions:
        visit(qualname)
    summarized = {id(fn) for _, fn in functions}
    for qualname, fn in _all_functions(module):
        if id(fn) in summarized:
            continue
        if qualname in analysis.functions:  # e.g. a def in each if-arm
            qualname = f"{qualname}@{fn.lineno}"
        analysis.functions[qualname] = analyze(qualname, fn)

    # The module body last, seeing every function's summary.
    body = [
        stmt
        for stmt in module.body
        if not isinstance(stmt, (ast.ClassDef,) + _FuncDef)
    ]
    analysis.functions["<module>"] = analyze_function(
        qualname="<module>",
        body=body,
        params=[],
        defaults={},
        file=file,
        summaries=summaries,
        globals_env=constants,
    )
    return analysis
