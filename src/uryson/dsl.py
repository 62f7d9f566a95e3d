"""Model files: a small line-oriented language for kernels, operators, probes.

One construct per line; ``#`` starts a comment.  Names must be declared before
they are used.  The directives:

    space E 2                     input dimension (E) / output dimension (F)
    space F 2
    kernel NAME pwl (-1,1) (0,0) (1,1)
    kernel NAME abs|id|relu [scale=NUM]
    kernel NAME clamp(LO,HI) [scale=NUM]
    op NAME MxN [k11 k12; k21 k22]
    op NAME rank1 PHI u=(1,1)
    op NAME integral (EXPR) s=(...) t=(...) w=(...)
    probe NAME = (1,-2)
    set KEY VALUE

``EXPR`` is an arithmetic expression in the variables ``s``, ``t``, ``r``
with ``+ - * / ^`` and the functions abs, min, max, exp, sin, cos, at most
``_MAX_DEPTH`` deep.  One parse pass turns it into its canonical text (every
operation parenthesized, numbers by repr), which `IntegralOpDef.expr` holds,
and the evaluator of its kernel.  The ``set`` keys are the fields of
`Settings`.

An op line is read, built and written by its form's record (`MatrixOpDef`
after an MxN, else the `_OP_FORMS` entry of its keyword): ``parse`` reads the
line into the record and a closure that builds the operator, and ``text``
writes the line back.  The parser keeps the grammar, names and the checks
that span lines; the library objects check the rest (`Settings` its values,
the kernel classes their forms, `discretize_integral` an integral line, and
`rank_one` a rank-one line), as each operator is built, once, at its line.
The `Model` keeps what was built, and `build_operator` looks it up.
Tokenization failures and malformed lines raise ModelSyntaxError with
line/column; violations of model invariants raise ModelSemanticError with the
line, and the library error's code where it has one.  ``parse_model`` ->
``render`` -> ``parse_model`` is the identity on models.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable, Union

from .errors import (
    BadCommand,
    KernelEvalError,
    ModelSemanticError,
    ModelSyntaxError,
    UrysonError,
)
from .kernels import BuiltinKernel, PwlKernel, ScalarKernel
from .lattice import (
    DEFAULT_SUPPORT_CAP, DEFAULT_TOL, EpsSchedule, Vector, _Record, require_count,
    require_positive_finite,
)
from .operators import (
    IntegralKernelSpec,
    KernelOperator,
    discretize_integral,
    rank_one,
)

__all__ = [
    "Settings",
    "MatrixOpDef",
    "RankOneOpDef",
    "IntegralOpDef",
    "Model",
    "parse_model",
    "render",
    "build_operator",
]


# --------------------------------------------------------------------------
# tokens

# after spaces, the first alternative that matches at a position gives the
# token; END is a comment or the end of the line, BAD any other character
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<DIM>\d+x\d+(?![\w.]))"
    r"|(?P<NUM>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<PUNCT>[()\[\];,=+\-*/^])"
    r"|(?P<END>#|$)"
    r"|(?P<BAD>.))"
)


class _Token:
    """A token of one line: kind (DIM, NUM, NAME or PUNCT), text and column.
    A plain slotted class, not a frozen record: the parser builds one per
    token, and a record's guarded field writes would make tokenizing about
    1.6 times slower."""

    __slots__ = ("kind", "text", "col")

    def __init__(self, kind: str, text: str, col: int):
        self.kind = kind
        self.text = text
        self.col = col


def _tokenize_line(raw: str, lineno: int) -> list[_Token]:
    toks: list[_Token] = []
    for m in _TOKEN_RE.finditer(raw):
        kind = m.lastgroup
        if kind == "END":
            break
        if kind == "BAD":
            raise ModelSyntaxError(f"unexpected character {m[kind]!r}", lineno, m.start(kind) + 1)
        toks.append(_Token(kind, m[kind], m.start(kind) + 1))
    return toks


class _Cursor:
    def __init__(self, toks: list[_Token], lineno: int, line_len: int):
        self.toks = toks
        self.i = 0
        self.depth = 0  # expressions being parsed: parentheses and call arguments
        self.lineno = lineno
        self.end_col = (toks[-1].col + len(toks[-1].text)) if toks else line_len + 1

    def peek(self) -> _Token | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ModelSyntaxError("unexpected end of line", self.lineno, self.end_col)
        self.i += 1
        return tok

    def error(self, message: str) -> ModelSyntaxError:
        tok = self.peek()
        col = tok.col if tok else self.end_col
        return ModelSyntaxError(message, self.lineno, col)

    def expect_punct(self, ch: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != "PUNCT" or tok.text != ch:
            raise self.error(f"expected {ch!r}")
        return self.take()

    def expect_name(self, what: str = "a name") -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != "NAME":
            raise self.error(f"expected {what}")
        return self.take()

    def at_punct(self, ch: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "PUNCT" and tok.text == ch

    def require_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise self.error(f"unexpected trailing token {tok.text!r}")

    # literals ------------------------------------------------------------

    def pair(self) -> tuple[float, float]:
        """The numbers of ``(a,b)``."""
        self.expect_punct("(")
        a = self.number()
        self.expect_punct(",")
        b = self.number()
        self.expect_punct(")")
        return a, b

    def number(self) -> float:
        sign = 1.0
        if self.at_punct("-"):
            self.take()
            sign = -1.0
        tok = self.peek()
        if tok is None or tok.kind != "NUM":
            raise self.error("expected a number")
        self.take()
        return sign * float(tok.text)

    def integer(self, what: str) -> int:
        v = self.number()
        if not math.isfinite(v):
            raise ModelSemanticError(f"{what} must be finite", self.lineno)
        if v != int(v):
            raise ModelSemanticError(f"{what} must be an integer", self.lineno)
        return int(v)

    def vector_literal(self) -> tuple[float, ...]:
        self.expect_punct("(")
        vals = [self.number()]
        while self.at_punct(","):
            self.take()
            vals.append(self.number())
        self.expect_punct(")")
        if not all(math.isfinite(v) for v in vals):
            raise ModelSemanticError("vector coordinates must be finite", self.lineno)
        return tuple(vals)

    def keyed_vector(self, key: str) -> tuple[float, ...]:
        """The vector literal of ``KEY=(...)``."""
        tok = self.expect_name(f"{key}=(...)")
        if tok.text != key:
            raise ModelSyntaxError(f"expected {key}=(...)", self.lineno, tok.col)
        self.expect_punct("=")
        return self.vector_literal()


# --------------------------------------------------------------------------
# expressions over s, t, r, parsed in one pass into nodes (text, fn, height):
# the canonical text (every operation parenthesized, numbers by repr), the
# evaluator fn(s, t, r), and the nodes on the longest path of the expression

_Node = tuple[str, Callable[[float, float, float], float], int]

_EXPR_VARS = {"s": lambda s, t, r: s, "t": lambda s, t, r: t, "r": lambda s, t, r: r}
# name: (arity, function)
_EXPR_FUNCS = {
    "abs": (1, abs), "min": (2, min), "max": (2, max),
    "exp": (1, math.exp), "sin": (1, math.sin), "cos": (1, math.cos),
}
_BIN_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": math.pow,
}
# the deepest expression accepted: parentheses and calls nested, and nodes on
# a path (unary minus, '^', and + - * / chains), so that neither parsing nor
# an evaluator recurses further.  A node past it is ("", None, height): its
# line is refused after its ')', and the text of a long chain would take time
# quadratic in its length.
_MAX_DEPTH = 64


def _too_deep(lineno: int) -> ModelSemanticError:
    return ModelSemanticError(f"expression nested or chained deeper than {_MAX_DEPTH}", lineno)


def _node(f: Callable[..., float], args: list[_Node], head: str, sep: str) -> _Node:
    """The node f(*args) of one or two arguments, written as head, the args'
    texts joined by sep, and ')'."""
    height = max(h for _, _, h in args) + 1
    if height > _MAX_DEPTH:
        return "", None, height
    text = head + sep.join(text for text, _, _ in args) + ")"
    if len(args) == 1:
        a = args[0][1]
        return text, lambda s, t, r: f(a(s, t, r)), height
    a, b = args[0][1], args[1][1]
    return text, lambda s, t, r: f(a(s, t, r), b(s, t, r)), height


def _parse_expr(cur: _Cursor) -> _Node:
    cur.depth += 1
    if cur.depth > _MAX_DEPTH:
        raise _too_deep(cur.lineno)
    node = _parse_term(cur)
    while cur.at_punct("+") or cur.at_punct("-"):
        op = cur.take().text
        node = _node(_BIN_OPS[op], [node, _parse_term(cur)], "(", op)
    cur.depth -= 1
    return node


def _parse_term(cur: _Cursor) -> _Node:
    node = _parse_factor(cur)
    while cur.at_punct("*") or cur.at_punct("/"):
        op = cur.take().text
        node = _node(_BIN_OPS[op], [node, _parse_factor(cur)], "(", op)
    return node


def _parse_factor(cur: _Cursor) -> _Node:
    """Unary minus and right-associative '^', which binds tighter than a
    minus before it, read in a loop and folded from the right."""
    pending: list[_Node | None] = []  # None for a minus, else the base of a '^'
    while True:
        if cur.at_punct("-"):
            cur.take()
            pending.append(None)
            continue
        node = _parse_atom(cur)
        if not cur.at_punct("^"):
            break
        cur.take()
        pending.append(node)
    for base in reversed(pending):
        if base is None:
            node = _node(operator.neg, [node], "(-", "")
        else:
            node = _node(_BIN_OPS["^"], [base, node], "(", "^")
    return node


def _parse_atom(cur: _Cursor) -> _Node:
    tok = cur.peek()
    if tok is None:
        raise cur.error("expected an expression")
    if tok.kind == "NUM":
        cur.take()
        value = float(tok.text)
        if not math.isfinite(value):
            raise ModelSemanticError("expression numbers must be finite", cur.lineno)
        return _num_text(value), lambda s, t, r: value, 1
    if tok.kind == "NAME":
        cur.take()
        if cur.at_punct("("):
            if tok.text not in _EXPR_FUNCS:
                raise ModelSemanticError(
                    f"unknown function {tok.text!r}", cur.lineno, code="unknown_name"
                )
            arity, f = _EXPR_FUNCS[tok.text]
            cur.take()
            args = [_parse_expr(cur)]
            while cur.at_punct(","):
                cur.take()
                args.append(_parse_expr(cur))
            cur.expect_punct(")")
            if len(args) != arity:
                raise ModelSemanticError(f"{tok.text} takes {arity} argument(s)", cur.lineno)
            return _node(f, args, tok.text + "(", ",")
        if tok.text not in _EXPR_VARS:
            raise ModelSemanticError(
                f"unknown variable {tok.text!r} (expected s, t, or r)",
                cur.lineno,
                code="unknown_name",
            )
        return tok.text, _EXPR_VARS[tok.text], 1
    if cur.at_punct("("):
        cur.take()
        node = _parse_expr(cur)
        cur.expect_punct(")")
        return node
    raise cur.error(f"unexpected token {tok.text!r} in expression")


def _num_text(x: float) -> str:
    """Exact round-trip rendering (repr is shortest-exact for doubles)."""
    return repr(float(x))


def _expr_fn(evaluate: Callable[..., float]) -> Callable[[float, float, float], float]:
    """The evaluator's value as a float, or a KernelEvalError where it fails."""

    def fn(s: float, t: float, r: float) -> float:
        try:
            return float(evaluate(s, t, r))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise KernelEvalError(
                f"kernel expression failed to evaluate at "
                f"(s={s:g}, t={t:g}, r={r:g}): {exc}"
            ) from exc

    return fn


# --------------------------------------------------------------------------
# model

class Settings(_Record):
    """The settings of a model, and the one home of their rules: every field
    is finite, an integer field holds an integral value (an integral float
    becomes an int), tol is positive, cap_support at least 1, and eps0,
    factor and max_steps make an `EpsSchedule`.  A value that breaks one
    raises ValueError("setting <rule>"); ``set`` lines and CLI flags apply
    their values through this check."""

    # the one declaration: the fields, in order, and the CLI's setting flags
    # with the type of each default
    _defaults = {
        "tol": DEFAULT_TOL,
        **EpsSchedule._defaults,
        "cap_support": DEFAULT_SUPPORT_CAP,
        "seed": 0,
    }
    __slots__ = _fields = tuple(_defaults)

    def __post_init__(self):
        try:
            for key in self._fields:
                value = getattr(self, key)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(f"{key} must be finite")
                if isinstance(self._defaults[key], int):
                    if value != int(value):
                        raise ValueError(f"{key} must be an integer")
                    object.__setattr__(self, key, int(value))
            require_positive_finite("tol", self.tol)
            require_count("cap_support", self.cap_support)
            self.schedule()
        except ValueError as exc:
            raise ValueError(f"setting {exc}") from None

    def schedule(self) -> EpsSchedule:
        return EpsSchedule(self.eps0, self.factor, self.max_steps)


class MatrixOpDef(_Record):
    # shape: (m, n) = rows x columns; rows: tuples of kernel names
    __slots__ = _fields = ("name", "shape", "rows")

    @classmethod
    def parse(cls, name: str, cur: _Cursor, kernels: dict, built: dict):
        shape = tuple(map(int, cur.take().text.split("x")))
        if shape[0] < 1 or shape[1] < 1:
            raise ModelSemanticError("operator dimensions must be >= 1", cur.lineno)
        cur.expect_punct("[")
        rows: list[list[str]] = [[]]
        while not cur.at_punct("]"):
            tok = cur.peek()
            if tok is not None and tok.kind == "NAME":
                if tok.text not in kernels:
                    raise ModelSemanticError(
                        f"unknown kernel {tok.text!r}", cur.lineno, code="unknown_name"
                    )
                rows[-1].append(tok.text)
            elif cur.at_punct(";"):
                rows.append([])
            elif tok is None:
                raise cur.error("expected ']'")
            else:
                raise cur.error(f"unexpected token {tok.text!r} in matrix")
            cur.take()
        cur.take()
        cur.require_end()
        if len(rows) != shape[0] or any(len(r) != shape[1] for r in rows):
            raise ModelSemanticError(
                f"matrix for {name!r} must have {shape[0]} row(s) of {shape[1]} kernel(s)",
                cur.lineno,
                code="dimension_mismatch",
            )
        matrix = tuple(tuple(kernels[k] for k in row) for row in rows)
        return cls(name, shape, tuple(map(tuple, rows))), lambda: KernelOperator(matrix)

    def text(self) -> str:
        body = "; ".join(" ".join(row) for row in self.rows)
        return f"{self.shape[0]}x{self.shape[1]} [{body}]"


class RankOneOpDef(_Record):
    # phi: the functional's name; u: the direction's coordinates
    __slots__ = _fields = ("name", "phi", "u")

    @classmethod
    def parse(cls, name: str, cur: _Cursor, kernels: dict, built: dict):
        cur.take()
        phi = cur.expect_name("a functional name").text
        if phi not in built:
            raise ModelSemanticError(f"unknown operator {phi!r}", cur.lineno, code="unknown_name")
        if built[phi].m != 1:
            raise ModelSemanticError(
                f"rank-one factor {phi!r} must be a functional (one row)", cur.lineno
            )
        u = cur.keyed_vector("u")
        cur.require_end()
        if any(c < 0.0 for c in u):
            raise ModelSemanticError(
                "rank-one direction u must be nonnegative", cur.lineno, code="negative_u"
            )
        return cls(name, phi, u), lambda: rank_one(built[phi], Vector(u))

    def text(self) -> str:
        return f"rank1 {self.phi} u={_render_vec(self.u)}"


class IntegralOpDef(_Record):
    # expr: the kernel expression's canonical text; s_grid, t_grid, weights:
    # float tuples
    __slots__ = _fields = ("name", "expr", "s_grid", "t_grid", "weights")

    @classmethod
    def parse(cls, name: str, cur: _Cursor, kernels: dict, built: dict):
        cur.take()
        cur.expect_punct("(")
        expr, evaluate, height = _parse_expr(cur)
        cur.expect_punct(")")
        if height > _MAX_DEPTH:
            raise _too_deep(cur.lineno)
        s, t, w = [cur.keyed_vector(key) for key in "stw"]
        cur.require_end()
        spec = (_expr_fn(evaluate), s, t, w)
        return cls(name, expr, s, t, w), lambda: discretize_integral(IntegralKernelSpec(*spec))

    def text(self) -> str:
        s, t, w = (_render_vec(v) for v in (self.s_grid, self.t_grid, self.weights))
        return f"integral ({self.expr}) s={s} t={t} w={w}"


OpDef = Union[MatrixOpDef, RankOneOpDef, IntegralOpDef]
# the op forms selected by a keyword; a DIM token selects MatrixOpDef
_OP_FORMS = {"rank1": RankOneOpDef, "integral": IntegralOpDef}


class Model(_Record):
    """A parsed model: dims (n, m), (name, kernel) pairs, operator
    definitions, (name, probe) pairs and settings, all in declaration order.
    built maps each operator name, in declaration order, to the operator
    parse_model built; it takes no part in ==, hash or repr."""

    __slots__ = ("dims", "kernels", "operators", "probes", "settings", "built")
    _fields = ("dims", "kernels", "operators", "probes", "settings")

    def __init__(
        self,
        dims: tuple[int, int],
        kernels: tuple[tuple[str, ScalarKernel], ...],
        operators: tuple[OpDef, ...],
        probes: tuple[tuple[str, Vector], ...],
        settings: Settings,
        built: dict[str, KernelOperator],
    ):
        super().__init__(dims, kernels, operators, probes, settings)
        object.__setattr__(self, "built", built)

    def __reduce__(self):
        return (type(self), (*self._key, self.built))

    def _replace(self, **changes):
        # built is kept, so a change may not touch dims, kernels or operators
        return type(self)(**{**self._asdict(), **changes, "built": self.built})

    @property
    def n(self) -> int:
        return self.dims[0]

    @property
    def m(self) -> int:
        return self.dims[1]

    def kernel(self, name: str) -> ScalarKernel:
        for k, v in self.kernels:
            if k == name:
                return v
        raise BadCommand(f"unknown kernel {name!r}")

    def operator_def(self, name: str) -> OpDef:
        for d in self.operators:
            if d.name == name:
                return d
        raise BadCommand(f"unknown operator {name!r}")

    def probe(self, name: str) -> Vector:
        for k, v in self.probes:
            if k == name:
                return v
        raise BadCommand(f"unknown probe {name!r}")

    def operator_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.operators)

    def probe_names(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.probes)


def build_operator(model: Model, name: str) -> KernelOperator:
    """The operator declared as name, as parse_model built it (the same
    object on every call)."""
    if name not in model.built:
        raise BadCommand(f"unknown operator {name!r}")
    return model.built[name]


# --------------------------------------------------------------------------
# parsing

def parse_model(text: str) -> Model:
    spaces: dict[str, int] = {}
    kernels: dict[str, ScalarKernel] = {}
    operators: list[OpDef] = []
    probes: list[tuple[str, Vector]] = []
    settings, set_keys = Settings(), set()
    # the operator of each name, and the line of each kernel, operator and probe name
    built: dict[str, KernelOperator] = {}
    claimed: dict[str, int] = {}

    def claim(name: str, lineno: int) -> None:
        if name in claimed:
            raise ModelSemanticError(
                f"duplicate name {name!r} (first declared on line {claimed[name]})", lineno
            )
        claimed[name] = lineno

    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = _tokenize_line(raw, lineno)
        if not toks:
            continue
        cur = _Cursor(toks, lineno, len(raw))
        head = cur.expect_name("a directive")

        if head.text == "space":
            which = cur.expect_name("E or F").text
            if which not in ("E", "F"):
                raise ModelSemanticError(
                    f"space must be E (input) or F (output), got {which!r}", lineno
                )
            if which in spaces:
                raise ModelSemanticError(f"duplicate space {which}", lineno)
            dim = cur.integer("space dimension")
            if dim < 1:
                raise ModelSemanticError("space dimension must be >= 1", lineno)
            spaces[which] = dim
            cur.require_end()

        elif head.text == "kernel":
            name = cur.expect_name("a kernel name").text
            claim(name, lineno)
            form = cur.expect_name("a kernel form").text
            try:
                if form == "pwl":
                    pts = []
                    while cur.at_punct("("):
                        pts.append(cur.pair())
                    if not pts:
                        raise cur.error("expected at least one (x,y) breakpoint")
                    scale = _parse_scale_opt(cur)
                    kern: ScalarKernel = PwlKernel(tuple(pts))
                    if scale != 1.0:
                        kern = kern.scaled(scale)
                elif form in ("abs", "id", "relu"):
                    kern = BuiltinKernel(form, _parse_scale_opt(cur))
                elif form == "clamp":
                    params = cur.pair()
                    kern = BuiltinKernel("clamp", _parse_scale_opt(cur), params)
                else:
                    raise ModelSemanticError(f"unknown kernel form {form!r}", lineno)
            except ValueError as exc:
                raise ModelSemanticError(str(exc), lineno) from exc
            cur.require_end()
            kernels[name] = kern

        elif head.text == "op":
            name = cur.expect_name("an operator name").text
            claim(name, lineno)
            tok = cur.peek()
            keyword = tok is not None and tok.kind == "NAME" and tok.text
            form = MatrixOpDef if tok is not None and tok.kind == "DIM" else _OP_FORMS.get(keyword)
            if form is None:
                raise cur.error("expected MxN, rank1, or integral")
            d, build = form.parse(name, cur, kernels, built)
            try:
                built[name] = build()
            except (UrysonError, ValueError) as exc:
                raise ModelSemanticError(str(exc), lineno, code=getattr(exc, "code", None)) from exc
            operators.append(d)

        elif head.text == "probe":
            name = cur.expect_name("a probe name").text
            claim(name, lineno)
            cur.expect_punct("=")
            coords = cur.vector_literal()
            cur.require_end()
            probes.append((name, Vector(coords)))

        elif head.text == "set":
            key = cur.expect_name("a setting key").text
            if key not in Settings._fields:
                raise ModelSemanticError(f"unknown setting {key!r}", lineno)
            if key in set_keys:
                raise ModelSemanticError(f"duplicate setting {key!r}", lineno)
            value = cur.number()
            cur.require_end()
            try:
                settings = settings._replace(**{key: value})
            except ValueError as exc:
                raise ModelSemanticError(str(exc), lineno) from exc
            set_keys.add(key)

        else:
            raise ModelSyntaxError(f"unknown directive {head.text!r}", lineno, head.col)

    return Model(
        dims=_finish_model(spaces, built, probes, claimed),
        kernels=tuple(kernels.items()),
        operators=tuple(operators),
        probes=tuple(probes),
        settings=settings,
        built=built,
    )


def _parse_scale_opt(cur: _Cursor) -> float:
    tok = cur.peek()
    if tok is not None and tok.kind == "NAME" and tok.text == "scale":
        cur.take()
        cur.expect_punct("=")
        return cur.number()
    return 1.0


def _finish_model(
    spaces: dict[str, int],
    built: dict[str, KernelOperator],
    probes: list[tuple[str, Vector]],
    lines: dict[str, int],
) -> tuple[int, int]:
    """Cross-line checks: dimension agreement and inference of (n, m) from the
    operators in declaration order; lines gives each operator's and probe's line."""
    n = spaces.get("E")
    m = spaces.get("F")

    def fit(fixed: int | None, dim: int, name: str, what: str) -> int:
        """dim, unless it disagrees with the dimension fixed so far."""
        if fixed is not None and dim != fixed:
            raise ModelSemanticError(
                f"{what.format(repr(name))} {dim}, expected {fixed}",
                lines[name],
                code="dimension_mismatch",
            )
        return dim

    for name, op in built.items():
        n = fit(n, op.n, name, "operator {} has input dimension")
        if op.m != 1:  # one-row operators are functionals; always admissible
            m = fit(m, op.m, name, "operator {} has output dimension")
    for name, v in probes:
        n = fit(n, v.dim, name, "probe {} has dimension")

    if n is None:
        raise ModelSemanticError("model declares no dimensions (add a space, operator, or probe)", 1)
    if m is None:
        m = 1 if any(op.m == 1 for op in built.values()) else n
    return n, m


# --------------------------------------------------------------------------
# rendering

def _render_kernel(k: ScalarKernel) -> str:
    if isinstance(k, PwlKernel):
        pts = " ".join(f"({_num_text(x)},{_num_text(y)})" for x, y in k.points)
        return f"pwl {pts}"
    assert isinstance(k, BuiltinKernel)
    if k.name == "clamp":
        lo, hi = k.params
        base = f"clamp({_num_text(lo)},{_num_text(hi)})"
    else:
        base = k.name
    if k.scale != 1.0:
        base += f" scale={_num_text(k.scale)}"
    return base


def _render_vec(vals) -> str:
    return "(" + ",".join(_num_text(v) for v in vals) + ")"


def render(model: Model) -> str:
    """Canonical text for a model; reparses to an equal Model."""
    lines = [f"space E {model.n}", f"space F {model.m}"]
    lines += [f"kernel {name} {_render_kernel(k)}" for name, k in model.kernels]
    lines += [f"op {d.name} {d.text()}" for d in model.operators]
    lines += [f"probe {name} = {_render_vec(v.coords)}" for name, v in model.probes]
    defaults = Settings()
    for key in Settings._fields:
        val = getattr(model.settings, key)
        if val != getattr(defaults, key):
            text = str(val) if isinstance(val, int) else _num_text(val)
            lines.append(f"set {key} {text}")
    return "\n".join(lines) + "\n"
