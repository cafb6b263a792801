"""Expression compiler: SQL AST → generated Python closures.

The planner historically evaluated expressions through trees of nested
closures — every row paid one Python call per AST node.  This module
lowers each predicate/projection **once per query** into straight-line
Python source (built with ``compile``/``exec``), preserving SQL
three-valued NULL logic exactly:

- comparisons/arithmetic with NULL yield NULL,
- AND/OR short-circuit and propagate unknowns,
- ``x IN (...)`` distinguishes "not found" from "found an unknown",
- division/modulo by zero yield NULL (matching the interpreter).

Two lowerings exist per expression:

- **row mode** — ``f(row) -> value`` (or ``-> bool`` for predicates),
  used by the row engine and by batch operators without a compiled
  batch form;
- **batch mode** — the same statements inlined into a loop over a
  :class:`~repro.access.batch.RowBatch`'s column lists:
  ``f(columns, n) -> keep`` (surviving row positions) for predicates,
  ``f(columns, n) -> output columns`` for projections.

Anything the code generator cannot lower falls back to the interpreted
evaluator (:func:`repro.data.sql.planner.compile_expression`), which
remains the semantic reference — a property test asserts bit-identical
results between the two.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Union

from repro.data.sql import ast
from repro.errors import SQLPlanError


def _like_to_regex(pattern: str) -> re.Pattern:
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


# Adversarial workloads can stream unbounded distinct LIKE patterns;
# past this many cached regexes new patterns compile uncached, same
# capped style as the record decoder's bitmap plan cache.
_LIKE_CACHE_LIMIT = 256


def _sql_like(value: Any, pattern: Any, _cache: dict = {}) -> Any:
    """Dynamic LIKE (non-constant pattern); regexes cached per pattern."""
    if value is None or pattern is None:
        return None
    regex = _cache.get(pattern)
    if regex is None:
        regex = _like_to_regex(pattern)
        if len(_cache) < _LIKE_CACHE_LIMIT:
            _cache[pattern] = regex
    return bool(regex.match(value))


def _sql_in(value: Any, items: tuple, negated: bool) -> Any:
    """Runtime IN over computed items, with three-valued semantics."""
    if value is None:
        return None
    unknown = False
    for candidate in items:
        if candidate is None:
            unknown = True
        elif candidate == value:
            return not negated
    if unknown:
        return None
    return negated


class _Unsupported(Exception):
    """Node shape the generator cannot lower (→ interpreted fallback)."""


_COMPARE_OPS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=",
                ">": ">", ">=": ">="}
_ARITH_OPS = {"+": "+", "-": "-", "*": "*"}


class _Emitter:
    """Accumulates generated statements with block indentation and a
    constant/helper namespace handed to ``exec``."""

    def __init__(self) -> None:
        self.prologue: list[str] = []   # once-per-call column binds
        self.outer: list[str] = []      # once-per-bind parameter loads
        self.body: list[str] = []
        self.indent = 0
        self.counter = 0
        self.namespace: dict[str, Any] = {}
        self._bound_columns: set[int] = set()

    def temp(self) -> str:
        self.counter += 1
        return f"t{self.counter}"

    def register(self, value: Any) -> str:
        """Bind a constant object into the exec namespace."""
        self.counter += 1
        name = f"k{self.counter}"
        self.namespace[name] = value
        return name

    def helper(self, name: str, fn: Callable) -> str:
        self.namespace[name] = fn
        return name

    def line(self, text: str) -> None:
        self.body.append("    " * self.indent + text)

    def block(self) -> "_Block":
        return _Block(self)

    def rendered(self, base_indent: int) -> str:
        pad = "    " * base_indent
        return "\n".join(pad + line for line in self.body)


class _Block:
    def __init__(self, emitter: _Emitter) -> None:
        self.emitter = emitter

    def __enter__(self) -> None:
        self.emitter.indent += 1

    def __exit__(self, *exc) -> None:
        self.emitter.indent -= 1


class _Codegen:
    """Lowers one expression tree; ``mode`` picks the column load form.

    With ``late=True`` parameter values are not baked in as constants:
    each ``ast.Param`` lowers to a load from the enclosing factory's
    ``params`` argument, so the generated closure is reusable across
    executions with different bindings (the statement-cache hot path).
    """

    def __init__(self, scope, params: Sequence[Any], mode: str,
                 late: bool = False) -> None:
        self.scope = scope
        self.params = params
        self.mode = mode          # "row" | "batch" | "rows"
        self.late = late
        self.em = _Emitter()
        # Static null-tracking: names known to never hold None let the
        # lowering drop ``is None`` guards (constants, comparison
        # results over non-null operands, ...).
        self.nonnull: set[str] = {"True", "False"}
        self.const_values: dict[str, Any] = {}
        self.param_locals: dict[int, str] = {}
        self.max_param = -1

    # -- constants ------------------------------------------------------------

    def const(self, value: Any) -> str:
        """Name a compile-time constant.

        The singleton keywords inline; other values bind into the exec
        namespace and — in the loop modes — are hoisted into a local
        before the loop so the hot path pays local-variable lookups.
        """
        if value is None:
            return "None"
        if value is True:
            return "True"
        if value is False:
            return "False"
        name = self.em.register(value)
        if self.mode != "row":
            local = f"{name}_"
            self.em.prologue.append(f"{local} = {name}")
            name = local
        self.nonnull.add(name)
        self.const_values[name] = value
        return name

    def _null_checks(self, *operands: str) -> list[str]:
        return [f"{v} is None" for v in operands
                if v not in self.nonnull]

    def _late_param(self, index: int) -> str:
        """Bind ``params[index]`` once per execution in the factory."""
        name = self.param_locals.get(index)
        if name is None:
            name = f"p{index}"
            self.param_locals[index] = name
            self.em.outer.append(f"{name} = params[{index}]")
            if index > self.max_param:
                self.max_param = index
        return name

    # -- loads ---------------------------------------------------------------

    def load(self, index: int) -> str:
        em = self.em
        target = em.temp()
        if self.mode in ("row", "rows"):
            em.line(f"{target} = row[{index}]")
        else:
            if index not in em._bound_columns:
                em._bound_columns.add(index)
                em.prologue.append(f"c{index} = cols[{index}]")
            em.line(f"{target} = c{index}[i]")
        return target

    # -- dispatch ------------------------------------------------------------

    def emit(self, expr: ast.Expression) -> str:
        em = self.em
        # Slot-mapped nodes (aggregate results, group keys) take
        # precedence over structural lowering, as in the interpreter.
        if expr in self.scope.node_slots:
            return self.load(self.scope.node_slots[expr])
        if isinstance(expr, ast.Literal):
            return self.const(expr.value)
        if isinstance(expr, ast.Param):
            if self.late:
                return self._late_param(expr.index)
            if expr.index >= len(self.params):
                raise SQLPlanError(
                    f"statement references parameter {expr.index} but only "
                    f"{len(self.params)} given")
            return self.const(self.params[expr.index])
        if isinstance(expr, ast.ColumnRef):
            return self.load(self.scope.resolve(expr))
        if isinstance(expr, ast.Unary):
            return self._unary(expr)
        if isinstance(expr, ast.IsNull):
            operand = self.emit(expr.operand)
            target = em.temp()
            op = "is not None" if expr.negated else "is None"
            em.line(f"{target} = {operand} {op}")
            self.nonnull.add(target)
            return target
        if isinstance(expr, ast.InList):
            return self._in_list(expr)
        if isinstance(expr, ast.Between):
            return self._between(expr)
        if isinstance(expr, ast.Binary):
            return self._binary(expr)
        if isinstance(expr, ast.FunctionCall):
            raise SQLPlanError(
                f"aggregate {expr.name}() not allowed in this context")
        if isinstance(expr, ast.Star):
            raise SQLPlanError("* not allowed in this context")
        raise _Unsupported(type(expr).__name__)

    # -- node lowerings ------------------------------------------------------

    def _guarded(self, target: str, checks: list[str],
                 expression: str) -> str:
        """Assign ``expression``, guarded by any remaining null checks;
        with none left the result is statically non-null."""
        if checks:
            self.em.line(f"{target} = None if {' or '.join(checks)} "
                         f"else {expression}")
        else:
            self.em.line(f"{target} = {expression}")
            self.nonnull.add(target)
        return target

    def _unary(self, expr: ast.Unary) -> str:
        operand = self.emit(expr.operand)
        target = self.em.temp()
        op = "not " if expr.operator == "NOT" else "-"
        return self._guarded(target, self._null_checks(operand),
                             f"{op}{operand}")

    def _between(self, expr: ast.Between) -> str:
        operand = self.emit(expr.operand)
        low = self.emit(expr.low)
        high = self.emit(expr.high)
        target = self.em.temp()
        test = f"{low} <= {operand} <= {high}"
        if expr.negated:
            test = f"not ({test})"
        else:
            test = f"({test})"
        return self._guarded(target,
                             self._null_checks(operand, low, high), test)

    def _in_list(self, expr: ast.InList) -> str:
        em = self.em
        operand = self.emit(expr.operand)
        target = em.temp()
        constant_items = all(
            isinstance(item, ast.Literal)
            or (not self.late and isinstance(item, ast.Param))
            for item in expr.items)
        if constant_items:
            values = [item.value if isinstance(item, ast.Literal)
                      else self._param_value(item) for item in expr.items]
            # NaN breaks set-membership equivalence with `==`; use the
            # runtime loop for it (and only it).
            if not any(isinstance(v, float) and v != v for v in values):
                has_null = any(v is None for v in values)
                members = self.const(
                    frozenset(v for v in values if v is not None))
                hit = "False" if expr.negated else "True"
                miss = "None" if has_null else \
                    ("True" if expr.negated else "False")
                inner = f"({hit} if {operand} in {members} else {miss})"
                checks = self._null_checks(operand)
                if checks:
                    em.line(f"{target} = None if {checks[0]} else {inner}")
                else:
                    em.line(f"{target} = {inner}")
                    if not has_null:
                        self.nonnull.add(target)
                return target
        items = [self.emit(item) for item in expr.items]
        helper = em.helper("_sql_in", _sql_in)
        joined = ", ".join(items)
        comma = "," if len(items) == 1 else ""
        em.line(f"{target} = {helper}({operand}, ({joined}{comma}), "
                f"{expr.negated})")
        return target

    def _param_value(self, param: ast.Param) -> Any:
        if param.index >= len(self.params):
            raise SQLPlanError(
                f"statement references parameter {param.index} but only "
                f"{len(self.params)} given")
        return self.params[param.index]

    def _binary(self, expr: ast.Binary) -> str:
        em = self.em
        op_name = expr.operator
        if op_name in ("AND", "OR"):
            return self._logical(expr)
        left = self.emit(expr.left)
        if op_name == "LIKE":
            return self._like(expr, left)
        right = self.emit(expr.right)
        target = em.temp()
        if op_name in _COMPARE_OPS:
            return self._guarded(target, self._null_checks(left, right),
                                 f"{left} {_COMPARE_OPS[op_name]} {right}")
        if op_name in _ARITH_OPS:
            return self._guarded(target, self._null_checks(left, right),
                                 f"{left} {_ARITH_OPS[op_name]} {right}")
        if op_name in ("/", "%"):
            checks = self._null_checks(left, right)
            # A constant non-zero divisor needs no zero guard.
            divisor = self.const_values.get(right)
            if not (right in self.const_values and divisor != 0):
                checks.append(f"{right} == 0")
            return self._guarded(target, checks,
                                 f"{left} {op_name} {right}")
        raise SQLPlanError(f"unsupported operator {op_name!r}")

    def _like(self, expr: ast.Binary, left: str) -> str:
        em = self.em
        target = em.temp()
        pattern_node = expr.right
        if isinstance(pattern_node, ast.Literal) or \
                (not self.late and isinstance(pattern_node, ast.Param)):
            pattern = pattern_node.value \
                if isinstance(pattern_node, ast.Literal) \
                else self._param_value(pattern_node)
            if pattern is None:
                em.line(f"{target} = None")
                return target
            if isinstance(pattern, str):
                regex = self.const(_like_to_regex(pattern))
                return self._guarded(target, self._null_checks(left),
                                     f"bool({regex}.match({left}))")
        right = self.emit(pattern_node)
        helper = em.helper("_sql_like", _sql_like)
        em.line(f"{target} = {helper}({left}, {right})")
        return target

    def _logical(self, expr: ast.Binary) -> str:
        """Short-circuiting AND/OR with unknown propagation, mirroring
        the interpreter's ``_sql_and``/``_sql_or`` exactly."""
        em = self.em
        left = self.emit(expr.left)
        target = em.temp()
        shortcut = "False" if expr.operator == "AND" else "True"
        combine = "and" if expr.operator == "AND" else "or"
        em.line(f"if {left} is {shortcut}:")
        with em.block():
            em.line(f"{target} = {shortcut}")
        em.line("else:")
        with em.block():
            right = self.emit(expr.right)
            em.line(f"if {right} is {shortcut}:")
            with em.block():
                em.line(f"{target} = {shortcut}")
            em.line(f"elif {left} is None or {right} is None:")
            with em.block():
                em.line(f"{target} = None")
            em.line("else:")
            with em.block():
                em.line(f"{target} = bool({left}) {combine} bool({right})")
        return target


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


# Generated source repeats heavily across statements that share a shape
# (the statement cache normalizes literals away), so code objects are
# cached by source text: ``exec`` still runs per call against a fresh
# namespace, but ``compile`` — the expensive half — is amortized.
_CODE_CACHE: "OrderedDict[str, Any]" = OrderedDict()
_CODE_CACHE_LIMIT = 512
_CODE_LOCK = threading.Lock()


def _assemble(source: str, namespace: dict,
              name: str = "_compiled") -> Callable:
    with _CODE_LOCK:
        code = _CODE_CACHE.get(source)
        if code is not None:
            _CODE_CACHE.move_to_end(source)
    if code is None:
        code = compile(source, "<sql-compiled>", "exec")
        with _CODE_LOCK:
            if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
                _CODE_CACHE.popitem(last=False)
            _CODE_CACHE[source] = code
    exec(code, namespace)
    return namespace.pop(name)


def _bad_param_count(index: int, given: int) -> SQLPlanError:
    return SQLPlanError(
        f"statement references parameter {index} but only {given} given")


def _factory_source(gen: _Codegen, inner: str) -> str:
    """Wrap an inner closure definition (already indented one level) in
    ``def _factory(params)`` performing the once-per-bind loads."""
    lines = []
    if gen.max_param >= 0:
        helper = gen.em.helper("_bad_param_count", _bad_param_count)
        lines.append(f"    if len(params) <= {gen.max_param}:")
        lines.append(f"        raise {helper}({gen.max_param}, len(params))")
    lines.extend(f"    {stmt}" for stmt in gen.em.outer)
    return ("def _factory(params):\n"
            + "".join(line + "\n" for line in lines)
            + inner
            + "    return _compiled\n")


def _interpreted(expr: ast.Expression, scope,
                 params: Sequence[Any]) -> Callable[[tuple], Any]:
    # Imported lazily: the planner imports this module at load time.
    from repro.data.sql.planner import compile_expression
    return compile_expression(expr, scope, params)


def compile_scalar(expr: ast.Expression, scope,
                   params: Sequence[Any] = ()) -> Callable[[tuple], Any]:
    """``row -> value`` closure: generated code, interpreted fallback."""
    try:
        gen = _Codegen(scope, params, "row")
        result = gen.emit(expr)
        src = ("def _compiled(row):\n"
               + (gen.em.rendered(1) + "\n" if gen.em.body else "")
               + f"    return {result}")
        return _assemble(src, gen.em.namespace)
    except _Unsupported:
        return _interpreted(expr, scope, params)


@dataclass
class CompiledPredicate:
    """A WHERE/HAVING/ON predicate in its execution forms.

    ``row(tuple) -> bool`` keeps only rows whose value is exactly TRUE;
    ``batch(columns, n) -> list[int]`` returns surviving row positions
    from columnar inputs; ``rows(row_list) -> list[int]`` is the same
    loop over a row-backed batch (no transpose).  The loop forms are
    ``None`` when the generator could not lower the expression.
    """

    row: Callable[[tuple], bool]
    batch: Optional[Callable[[Sequence[list], int], list[int]]]
    rows: Optional[Callable[[Sequence[tuple]], list[int]]]
    compiled: bool


def compile_predicate(expr: ast.Expression, scope,
                      params: Sequence[Any] = ()) -> CompiledPredicate:
    try:
        gen = _Codegen(scope, params, "row")
        result = gen.emit(expr)
        src = ("def _compiled(row):\n"
               + (gen.em.rendered(1) + "\n" if gen.em.body else "")
               + f"    return {result} is True")
        row_fn = _assemble(src, gen.em.namespace)
        compiled = True
    except _Unsupported:
        inner = _interpreted(expr, scope, params)
        row_fn = lambda row, _p=inner: _p(row) is True  # noqa: E731
        compiled = False
    batch_fn = rows_fn = None
    if compiled:
        gen = _Codegen(scope, params, "batch")
        result = gen.emit(expr)
        prologue = "".join(f"    {line}\n" for line in gen.em.prologue)
        src = ("def _compiled(cols, n):\n"
               + prologue
               + "    keep = []\n"
               + "    _append = keep.append\n"
               + "    for i in range(n):\n"
               + (gen.em.rendered(2) + "\n" if gen.em.body else "")
               + f"        if {result} is True:\n"
               + "            _append(i)\n"
               + "    return keep")
        batch_fn = _assemble(src, gen.em.namespace)
        gen = _Codegen(scope, params, "rows")
        result = gen.emit(expr)
        prologue = "".join(f"    {line}\n" for line in gen.em.prologue)
        src = ("def _compiled(rows):\n"
               + prologue
               + "    keep = []\n"
               + "    _append = keep.append\n"
               + "    for i, row in enumerate(rows):\n"
               + (gen.em.rendered(2) + "\n" if gen.em.body else "")
               + f"        if {result} is True:\n"
               + "            _append(i)\n"
               + "    return keep")
        rows_fn = _assemble(src, gen.em.namespace)
    return CompiledPredicate(row_fn, batch_fn, rows_fn, compiled)


@dataclass
class CompiledProjection:
    """A projection list in both execution forms.

    ``row_exprs`` is one ``row -> value`` closure per output column.
    ``positions`` is set when every output is a bare column load — the
    batch engine then re-references input columns with zero copying.
    Otherwise ``batch(columns, n) -> tuple of output columns`` computes
    all outputs in one generated loop over columnar inputs, and
    ``rows(row_list)`` is the same loop over a row-backed batch
    (``None`` on fallback).
    """

    row_exprs: list
    positions: Optional[list[int]]
    batch: Optional[Callable]
    rows: Optional[Callable]


Output = Union[int, ast.Expression]


def _output_position(output: Output, scope) -> Optional[int]:
    """The input position a pure column-load output reads, else None."""
    if isinstance(output, int):
        return output
    if output in scope.node_slots:
        return scope.node_slots[output]
    if isinstance(output, ast.ColumnRef):
        return scope.resolve(output)
    return None


def compile_projection(outputs: Sequence[Output], scope,
                       params: Sequence[Any] = ()) -> CompiledProjection:
    """Lower a projection list (ints are direct input positions)."""
    row_exprs = []
    positions: Optional[list[int]] = []
    for output in outputs:
        if isinstance(output, int):
            row_exprs.append(lambda row, _i=output: row[_i])
        else:
            row_exprs.append(compile_scalar(output, scope, params))
        position = _output_position(output, scope)
        if positions is not None and position is not None:
            positions.append(position)
        else:
            positions = None
    if positions is not None:
        return CompiledProjection(row_exprs, positions, None, None)

    def lower(mode: str, header: str, loop: str) -> Callable:
        gen = _Codegen(scope, params, mode)
        results = []
        for output in outputs:
            if isinstance(output, int):
                results.append(gen.load(output))
            else:
                results.append(gen.emit(output))
        prologue = "".join(f"    {line}\n" for line in gen.em.prologue)
        declares = "".join(
            f"    out{i} = []\n    _a{i} = out{i}.append\n"
            for i in range(len(outputs)))
        appends = "".join(
            f"        _a{i}({result})\n"
            for i, result in enumerate(results))
        returns = ", ".join(f"out{i}" for i in range(len(outputs)))
        comma = "," if len(outputs) == 1 else ""
        src = (header
               + prologue + declares
               + loop
               + (gen.em.rendered(2) + "\n" if gen.em.body else "")
               + appends
               + f"    return ({returns}{comma})")
        return _assemble(src, gen.em.namespace)

    try:
        batch_fn = lower("batch", "def _compiled(cols, n):\n",
                         "    for i in range(n):\n")
        rows_fn = lower("rows", "def _compiled(rows):\n",
                        "    for row in rows:\n")
    except _Unsupported:
        batch_fn = rows_fn = None
    return CompiledProjection(row_exprs, None, batch_fn, rows_fn)


# ---------------------------------------------------------------------------
# Late-binding factories (statement cache)
# ---------------------------------------------------------------------------
#
# The ``compile_*`` entry points above bake ``params`` into the closure,
# so nothing survives the statement.  The ``*_factory`` variants lower
# the expression ONCE with parameter loads left symbolic; the result is
# a cheap ``factory(params) -> closure`` call per execution.  They are
# what the plan cache stores.


def compile_scalar_factory(expr: ast.Expression,
                           scope) -> Callable[[Sequence[Any]], Callable]:
    """``factory(params) -> (row -> value)`` with late-bound params."""
    try:
        gen = _Codegen(scope, (), "row", late=True)
        result = gen.emit(expr)
        inner = ("    def _compiled(row):\n"
                 + (gen.em.rendered(2) + "\n" if gen.em.body else "")
                 + f"        return {result}\n")
        return _assemble(_factory_source(gen, inner), gen.em.namespace,
                         name="_factory")
    except _Unsupported:
        return lambda params: _interpreted(expr, scope, params)


def compile_predicate_factory(
        expr: ast.Expression,
        scope) -> Callable[[Sequence[Any]], CompiledPredicate]:
    """``factory(params) -> CompiledPredicate`` with late-bound params."""
    try:
        gen = _Codegen(scope, (), "row", late=True)
        result = gen.emit(expr)
        inner = ("    def _compiled(row):\n"
                 + (gen.em.rendered(2) + "\n" if gen.em.body else "")
                 + f"        return {result} is True\n")
        row_factory = _assemble(_factory_source(gen, inner),
                                gen.em.namespace, name="_factory")
    except _Unsupported:
        def bind_interpreted(params: Sequence[Any]) -> CompiledPredicate:
            inner_fn = _interpreted(expr, scope, params)
            return CompiledPredicate(
                lambda row: inner_fn(row) is True, None, None, False)
        return bind_interpreted

    def loop_factory(mode: str, header: str, loop: str) -> Callable:
        gen = _Codegen(scope, (), mode, late=True)
        result = gen.emit(expr)
        inner = (header
                 + "".join(f"        {line}\n" for line in gen.em.prologue)
                 + "        keep = []\n"
                 "        _append = keep.append\n"
                 + loop
                 + (gen.em.rendered(3) + "\n" if gen.em.body else "")
                 + f"            if {result} is True:\n"
                 "                _append(i)\n"
                 "        return keep\n")
        return _assemble(_factory_source(gen, inner), gen.em.namespace,
                         name="_factory")

    batch_factory = loop_factory("batch", "    def _compiled(cols, n):\n",
                                 "        for i in range(n):\n")
    rows_factory = loop_factory("rows", "    def _compiled(rows):\n",
                                "        for i, row in enumerate(rows):\n")

    def bind(params: Sequence[Any]) -> CompiledPredicate:
        return CompiledPredicate(row_factory(params), batch_factory(params),
                                 rows_factory(params), True)
    return bind


def compile_projection_factory(
        outputs: Sequence[Output],
        scope) -> Callable[[Sequence[Any]], CompiledProjection]:
    """``factory(params) -> CompiledProjection`` with late-bound params."""
    factories: list[Callable] = []
    positions: Optional[list[int]] = []
    for output in outputs:
        if isinstance(output, int):
            factories.append(
                lambda params, _i=output: (lambda row, _j=_i: row[_j]))
        else:
            factories.append(compile_scalar_factory(output, scope))
        position = _output_position(output, scope)
        if positions is not None and position is not None:
            positions.append(position)
        else:
            positions = None
    if positions is not None:
        # Bare column loads read no parameter: one projection serves
        # every binding (operators copy what they keep).
        bound = CompiledProjection([f(()) for f in factories], positions,
                                   None, None)
        return lambda params: bound

    def loop_factory(mode: str, header: str, loop: str) -> Callable:
        gen = _Codegen(scope, (), mode, late=True)
        results = []
        for output in outputs:
            if isinstance(output, int):
                results.append(gen.load(output))
            else:
                results.append(gen.emit(output))
        declares = "".join(
            f"        out{i} = []\n        _a{i} = out{i}.append\n"
            for i in range(len(outputs)))
        appends = "".join(
            f"            _a{i}({result})\n"
            for i, result in enumerate(results))
        returns = ", ".join(f"out{i}" for i in range(len(outputs)))
        comma = "," if len(outputs) == 1 else ""
        inner = (header
                 + "".join(f"        {line}\n" for line in gen.em.prologue)
                 + declares
                 + loop
                 + (gen.em.rendered(3) + "\n" if gen.em.body else "")
                 + appends
                 + f"        return ({returns}{comma})\n")
        return _assemble(_factory_source(gen, inner), gen.em.namespace,
                         name="_factory")

    try:
        batch_factory = loop_factory(
            "batch", "    def _compiled(cols, n):\n",
            "        for i in range(n):\n")
        rows_factory = loop_factory(
            "rows", "    def _compiled(rows):\n",
            "        for row in rows:\n")
    except _Unsupported:
        batch_factory = rows_factory = None

    def bind(params: Sequence[Any]) -> CompiledProjection:
        return CompiledProjection(
            [f(params) for f in factories], None,
            batch_factory(params) if batch_factory else None,
            rows_factory(params) if rows_factory else None)
    return bind
