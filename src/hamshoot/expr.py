"""Scalar expression language for specifying Hamiltonians and couplings.

Systems are written as plain text, e.g. ``"0.5*(mu*pos(u)^2 + nu*neg(u)^2 + v^2)"``,
parsed once into an immutable AST.  An :class:`ExprBlock` describes a block
of expressions once; :func:`compile_blocks` compiles it, alone into the
block's callable or with others into a system's fused field, as straight-line
numpy code of (t, z) that returns values or exact forward-mode gradients, and
second derivatives forward over forward; :func:`eval_expr` and
:func:`grad_expr` compile one expression through it.  Each operation has
one rule, which emits its value line and builds its partials by calling the
rules again; an operation on literals alone is computed at compile time.  The
compiled functions take one point as floats or B points as columns, and the
columns give, element by element, bitwise what the points give one by one.

Grammar (EBNF), whitespace-insensitive::

    expression := term { ("+" | "-") term }
    term       := factor { ("*" | "/") factor }
    factor     := "-" factor | power
    power      := atom [ "^" factor ]          # right-associative
    atom       := NUMBER | NAME | NAME "(" expression {"," expression} ")"
                | "(" expression ")"

Precedence from tightest: ``^``, unary minus, ``* /``, ``+ -``, so
``-2^2 == -4`` and ``2^3^2 == 512``.  There is no implicit multiplication.

Functions: sin, cos, exp, ln, abs, sqrt, atan, pos, neg (one argument),
min, max (two arguments), with ``pos(s) = max(s, 0)`` and ``neg(s) = max(-s, 0)``.
At the kink of pos/neg/abs the derivative is fixed to 0 (a deterministic
subgradient choice), and the one-sided value holds on either side, so D_u of
``4*pos(u) - neg(u)`` is 4 for u > 0, 1 for u < 0 and 0 at u = 0; min/max
follow the second argument's derivative on ties.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, ExprSyntaxError, UnboundVariableError

__all__ = [
    "Expr", "Num", "Var", "Neg", "BinOp", "Call", "ExprBlock",
    "parse_expr", "compile_blocks", "Term", "eval_expr", "grad_expr", "unparse",
    "free_variables",
]


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

class Expr:
    """Base class for AST nodes. Nodes are frozen and shareable."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * / ^
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    args: tuple


FUNCTION_ARITY = {
    "sin": 1, "cos": 1, "exp": 1, "ln": 1, "abs": 1, "sqrt": 1, "atan": 1,
    "pos": 1, "neg": 1, "min": 2, "max": 2,
}


# --------------------------------------------------------------------------
# Tokenizer / parser
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(src):
    tokens = []
    pos = 0
    n = len(src)
    while pos < n:
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            # skip leading whitespace manually to report the true offset
            stripped = pos
            while stripped < n and src[stripped].isspace():
                stripped += 1
            if stripped >= n:
                break
            raise ExprSyntaxError(f"unexpected character {src[stripped]!r}", stripped)
        kind = m.lastgroup
        text = m.group(kind)
        tokens.append((kind, text, m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}, found {text or 'end of input'!r}", off)
        return self.advance()

    def parse(self):
        e = self.expression()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing token {text!r}", off)
        return e

    def left_assoc(self, ops, operand):
        """``operand { op operand }`` for the operators ``ops``, left-associative."""
        e = operand()
        while True:
            kind, text, _ = self.peek()
            if kind != "op" or text not in ops:
                return e
            self.advance()
            e = BinOp(text, e, operand())

    def expression(self):
        return self.left_assoc("+-", self.term)

    def term(self):
        return self.left_assoc("*/", self.factor)

    def factor(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", base, self.factor())
        return base

    def atom(self):
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTION_ARITY:
                    raise ExprSyntaxError(f"unknown function {text!r}", off)
                self.advance()
                args = [self.expression()]
                while True:
                    k2, t2, o2 = self.peek()
                    if k2 == "op" and t2 == ",":
                        self.advance()
                        args.append(self.expression())
                    else:
                        break
                self.expect_op(")")
                if len(args) != FUNCTION_ARITY[text]:
                    raise ExprSyntaxError(
                        f"{text} takes {FUNCTION_ARITY[text]} argument(s), got {len(args)}", off)
                return Call(text, tuple(args))
            return Var(text)
        if kind == "op" and text == "(":
            e = self.expression()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(
            f"expected a number, name or '(', found {text or 'end of input'!r}", off)


def parse_expr(src):
    """Parse ``src`` into an :class:`Expr` AST.

    Raises :class:`ExprSyntaxError` (with a byte offset) on malformed input,
    and at offset 0 when brackets, unary minus or ``^`` nest deeper than the
    recursive-descent parser can follow.
    """
    try:
        return _Parser(src).parse()
    except RecursionError:
        raise ExprSyntaxError("expression nests too deeply", 0) from None


# --------------------------------------------------------------------------
# Compilation to straight-line forward-mode code
# --------------------------------------------------------------------------

def _any(mask):
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


# Helpers that give numpy's values on arrays and on scalars alike, with a
# plain branch on scalars, where a ufunc call costs over a microsecond.

def _where(mask, a, b):
    if isinstance(mask, np.ndarray):
        return np.where(mask, a, b)
    return a if mask else b


def _pos(a):
    # np.maximum(a, 0.0): NaN propagates, and -0.0 gives 0.0
    if isinstance(a, np.ndarray):
        return np.maximum(a, 0.0)
    return a if a > 0.0 or a != a else 0.0


def _power(x, y):
    # np.power's array loop is not always correctly rounded for an array
    # exponent, the scalar call is: such an exponent takes it per element
    if isinstance(y, np.ndarray) and y.ndim:
        return np.vectorize(np.power, otypes=[float])(x, y)
    return np.power(x, y)


def _rows(z, rows):
    """``rows`` as one row each over the columns of ``z``, literals broadcast."""
    out = np.empty((len(rows),) + z.shape[1:])
    for i, r in enumerate(rows):
        out[i] = r
    return out


_NAMESPACE = {
    "_sin": np.sin, "_cos": np.cos, "_exp": np.exp, "_log": np.log, "_sqrt": np.sqrt,
    "_abs": np.abs, "_sign": np.sign, "_arctan": np.arctan, "_power": _power,
    "_round": np.round, "_maximum": np.maximum, "_minimum": np.minimum,
    "_any": _any, "_where": _where, "_pos": _pos, "_rows": _rows, "_float": float,
    "_DomainError": DomainError, "_array": np.array,
}


# compile_blocks unpacks the state to floats, and there the ufuncs return
# floats too: the same IEEE operations as on numpy scalars, at a fraction of
# the cost.  A float division by zero would raise, but no emitted division
# divides by zero: a node's divisor is checked first, and a partial divides
# only by such a divisor, by a checked ln or sqrt, or by 1 + a * a.  The
# wrappers take fixed arguments, which Python calls faster than ``*args``.
_FLOAT_NAMESPACE = dict(_NAMESPACE, **{
    name: (lambda f: lambda a: float(f(a)))(_NAMESPACE[name]) for name in (
        "_sin", "_cos", "_exp", "_log", "_sqrt", "_abs", "_sign", "_arctan")}, **{
    name: (lambda f: lambda a, b: float(f(a, b)))(_NAMESPACE[name]) for name in (
        "_power", "_maximum", "_minimum")})


def _literal(v):
    text = repr(float(v))
    if not np.isfinite(v):
        return f"_float({text!r})"
    return text if text[0].isdigit() else f"({text})"


class _T:
    """An operand of the generated code together with its partials.

    ``text`` is a generated name or a float literal.  ``d`` holds one partial
    per seed, each a ``_T`` of one derivative order less or None where
    structurally zero; ``d`` is None when the operand depends on no seed or
    no further order is built.
    """

    __slots__ = ("text", "d")

    def __init__(self, text, d=None):
        self.text, self.d = text, d


_ZERO, _HALF, _ONE = (_T(_literal(c)) for c in (0.0, 0.5, 1.0))

_CALL = {"sin": "_sin({})", "cos": "_cos({})", "exp": "_exp({})", "ln": "_log({})",
         "sqrt": "_sqrt({})", "abs": "_abs({})", "atan": "_arctan({})", "pos": "_pos({})",
         "neg": "_pos(-{})"}


class _Compiler:
    """Emits one assignment per operation, in evaluation order (children first).

    An operation becomes a term (:class:`_T`): its value and, when it depends
    on a seed (a ``wrt`` variable), its partials; to order 2 each partial has
    partials of its own.  Each operation has one rule, which emits the value
    line and builds the partials by calling the rules again, so nodes of the
    expression and their partials go through the same code and second
    derivatives follow from the first-order rules (forward over forward
    mode).  ``None`` marks a partial that is structurally zero, which is
    never computed; an operation on literals alone is computed here, with
    the functions the generated code calls, and one computed before is read
    from its line.  Only generated names, float literals and fixed messages
    reach the source text.
    """

    def __init__(self):
        self.lines, self.names, self.kinks = [], {}, {}  # kinks: argument operands, once each

    def block(self, args, wrt, params, order):
        """Compile what follows over ``args`` (name -> operand), seeded by ``wrt``."""
        self.args = args
        self.seeds = {name: i for i, name in enumerate(wrt or ())}
        self.params = params or {}
        self.order = order if self.seeds else 0

    def emit(self, form, *operands):
        """``form`` applied to ``operands``: its value as a literal when every
        operand is one, else the name of its line.  Every name is assigned
        once and every operation is pure, so an earlier line serves again."""
        text = form.format(*(a.text for a in operands))
        if not any(a.text.isidentifier() for a in operands):
            try:
                with np.errstate(all="ignore"):
                    return _literal(eval(text, dict(_NAMESPACE)))
            except ZeroDivisionError:
                pass  # x / 0.0 follows a domain check that raises first
        if text not in self.names:
            self.names[text] = f"a{len(self.lines)}"
            self.lines.append(f"{self.names[text]} = {text}")
        return self.names[text]

    def check(self, message, form, *operands):
        """Raise DomainError(message) where ``form`` on ``operands`` holds: a
        runtime line, or, on literals alone, here when it holds (then it holds
        at every point) and nothing when it does not."""
        cond = form.format(*(a.text for a in operands))
        if any(a.text.isidentifier() for a in operands):
            self.lines.append(f"if _any({cond}): raise _DomainError({message!r})")
        elif eval(cond, dict(_NAMESPACE)):
            raise DomainError(f"{message} at every point")

    # -- the rules: the value of an operation and its partials to order m ---

    def op(self, m, form, args, rule):
        """The term of ``form`` on ``args``, with partials ``rule(m - 1, *partials
        of args)`` per seed where some operand has one."""
        t = _T(self.emit(form, *args))
        if m and any(a.d is not None for a in args):
            k = len(self.seeds)
            t.d = [None if all(p is None for p in ps) else rule(m - 1, *ps)
                   for ps in zip(*(a.d or [None] * k for a in args))]
        return t

    def neg(self, m, a):
        return self.op(m, "-{}", [a], self.neg)

    def add(self, m, a, b, op="+"):
        return self.op(m, f"{{}} {op} {{}}", [a, b], lambda n, p, q: self.sum(n, p, op, q))

    def sum(self, m, a, op, b):
        """``a op b``, where a structural zero (None) is left out."""
        if b is None:
            return a
        if a is None:
            return b if op == "+" else self.neg(m, b)
        return self.add(m, a, b, op)

    def mul(self, m, a, b):
        # multiplying by 1.0, the seeds' partial, is exact, so it is left out
        if _ONE.text in (a.text, b.text):
            return b if a.text == _ONE.text else a
        # d(ab) = da b + a db
        return self.op(m, "{} * {}", [a, b], lambda n, p, q: self.sum(
            n, p and self.mul(n, p, b), "+", q and self.mul(n, a, q)))

    def div(self, m, a, b):
        # d(a/b) = (da - (a/b) db) / b, which divides only by b
        return self.op(m, "{} / {}", [a, b], lambda n, p, q: self.div(
            n, self.sum(n, p, "-", q and self.mul(n, self.div(n, a, b), q)), b))

    def power(self, m, a, b):
        """a^b for an exponent b without partials; numpy squares exactly, as a * a."""
        if b.text == "2.0":
            return self.mul(m, a, a)
        return self.op(m, "_power({}, {})", [a, b], lambda n, p, _: self.mul(
            n, self.mul(n, b, self.power(n, a, self.add(n, b, _ONE, "-"))), p))

    def extremum(self, m, fn, a, b):
        # ties follow b
        mask = f"{{}} {'<' if fn == 'min' else '>'} {{}}"
        return self.op(m, f"_{fn}imum({{}}, {{}})", [a, b], lambda n, p, q: self.where(
            n, _T(self.emit(mask, a, b)), p or _ZERO, q or _ZERO))

    def where(self, m, mask, a, b):
        return self.op(m, "_where({}, {}, {})", [mask, a, b], lambda n, _, p, q: self.where(
            n, mask, p or _ZERO, q or _ZERO))

    def call(self, m, fn, a):
        return self.op(m, _CALL[fn], [a], lambda n, p: self.chain(n, fn, a, p))

    def chain(self, m, fn, a, p):
        """The partial of fn(a) for the partial p of a: p over a divisor, or p
        times the slope, which at the kink of abs, pos or neg is 0, as are its
        own partials; exp and sqrt read their own line."""
        if fn == "ln":
            return self.div(m, p, a)
        if fn == "sqrt":
            return self.div(m, self.mul(m, _HALF, p), self.call(m, "sqrt", a))
        if fn == "atan":
            return self.div(m, p, self.add(m, _ONE, self.mul(m, a, a)))
        if fn in ("exp", "sin"):
            slope = self.call(m, "cos" if fn == "sin" else "exp", a)
        elif fn == "cos":
            slope = self.neg(m, self.call(m, "sin", a))
        else:
            slope = _T(self.emit({"abs": "_sign({})", "pos": "_where({} > 0.0, 1.0, 0.0)",
                                  "neg": "_where({} < 0.0, -1.0, 0.0)"}[fn], a))
        return self.mul(m, slope, p)

    # -- nodes --------------------------------------------------------------

    def node(self, e):
        """The term of ``e``, with partials to the compiler's order, after the
        domain checks of its operations."""
        return _fold(e, self.operation)

    def operation(self, e, args):
        """The term of the node ``e`` whose operands have the terms ``args``."""
        if isinstance(e, Num):
            return _T(_literal(e.value))
        if isinstance(e, Var):
            return self.var(e.name)
        m = self.order
        a, b = args[0], args[-1]
        if isinstance(e, Neg):
            return self.neg(m, a)
        if isinstance(e, Call):
            if e.fn in ("min", "max"):
                self.kinks[self.emit("{} - {}", a, b)] = None
                return self.extremum(m, e.fn, a, b)
            if e.fn in ("pos", "neg", "abs"):
                self.kinks[a.text] = None
            if e.fn == "ln":
                self.check("ln of a nonpositive value", "{} <= 0.0", a)
            if e.fn == "sqrt":
                self.check("sqrt of a negative value", "{} < 0.0", a)
                if a.d is not None:
                    self.check("sqrt not differentiable at 0", "{} == 0.0", a)
            return self.call(m, e.fn, a)
        if e.op in "+-":
            return self.add(m, a, b, e.op)
        if e.op == "*":
            return self.mul(m, a, b)
        if e.op == "/":
            if not (isinstance(e.rhs, Num) and e.rhs.value != 0.0):
                self.check("division by zero", "{} == 0.0", b)
            return self.div(m, a, b)
        if b.d is not None:
            # variable exponent: exp(y ln x), differentiated through ln and exp
            self.check("x^y with variable exponent requires x > 0", "{} <= 0.0", a)
            return self.call(m, "exp", self.mul(m, b, self.call(m, "ln", a)))
        const = e.rhs.value if isinstance(e.rhs, Num) else None
        if const is None or const != np.round(const):
            self.check("negative base with non-integer exponent",
                       "({0} != _round({0})) & ({1} < 0.0)", b, a)
        if const is None or const < 0:
            self.check("zero base with negative exponent", "({} < 0.0) & ({} == 0.0)", b, a)
        return self.power(m, a, b)

    def var(self, name):
        if name in self.seeds:
            i = self.seeds[name]
            return _T(self.args[name], [_ONE if j == i else None for j in range(len(self.seeds))])
        if name in self.args:
            return _T(self.args[name])
        if name in self.params:
            return _T(_literal(self.params[name]))
        raise UnboundVariableError(f"variable {name!r} is not bound")


_NAME = re.compile(r"[A-Za-z_]\w*")
_ASSIGNMENT = re.compile(r"(\w+) = (.*)")


def _live(lines, ret):
    """``lines`` without the assignments that neither ``ret`` nor a kept line reads.

    Every other line (the domain checks, the state unpacking) is kept, and
    so are the values it reads.
    """
    live = set(_NAME.findall(ret))
    kept = []
    for line in reversed(lines):
        m = _ASSIGNMENT.fullmatch(line)
        if m is not None and m.group(1) not in live:
            continue
        live.update(_NAME.findall(line if m is None else m.group(2)))
        kept.append(line)
    return kept[::-1]


def _define(lines, ret, namespace=_NAMESPACE):
    body = "".join(f"    {line}\n" for line in _live(lines, ret))
    src = f"def compiled(x0, z):\n{body}    return {ret}\n"
    namespace = dict(namespace)
    exec(compile(src, "<hamshoot.expr>", "exec"), namespace)
    fn = namespace["compiled"]
    fn.source = src
    return fn


@dataclass(frozen=True, eq=False)
class ExprBlock:
    """One block of expressions, as :func:`compile_blocks` compiles it.

    The block computes the values of ``exprs`` or, with ``wrt``, the gradient
    of its single expression, as a function of ``args`` with ``params`` folded
    in.  It is the one description behind both the block's own callable,
    ``compile_blocks([block], ...)``, and the fused field of a system that
    compiles it with other blocks.
    """

    exprs: tuple
    args: tuple
    wrt: tuple = None
    params: dict = None


class Term:
    """A field component in :func:`compile_blocks`: the operand of its value
    and its nonzero partials over the state, ``{state index: operand}``, with
    ``c`` the compiler that emits them (None for ``ZERO``).  ``-a``, ``a + b``
    and ``a - b`` apply its rules to the value and to the partials, with no
    operation on a structural zero."""

    def __init__(self, value, d, c=None):
        self.value, self.d, self.c = value, d, c

    def __neg__(self):
        c = self.c
        return Term(c.neg(0, self.value), {j: c.neg(0, p) for j, p in self.d.items()}, c)

    def __add__(self, other, op="+"):
        c = self.c or other.c
        d = dict(self.d)
        for j, q in other.d.items():
            d[j] = c.sum(0, d.get(j), op, q)
        return Term(c.sum(0, self.value, op, other.value), d, c)

    def __sub__(self, other):
        return self.__add__(other, "-")


Term.ZERO = Term(_ZERO, {})


def compile_blocks(blocks, state, combine, tangents=0):
    """Compile ``blocks`` into one straight-line function ``compiled(t, z)``.

    ``z`` is a 1-D array or a list of floats, whose first entries, named by
    ``state`` (possibly empty), are unpacked to floats; each block's ``args``
    are ``t`` and names from ``state``.  ``combine`` gets, per block, the
    :class:`Term` of each output (the value of each expression, or each
    partial of its gradient) and returns the field's terms, whose values,
    bitwise what each block compiled alone gives, the function returns as
    one array.  With ``tangents`` = k, z continues with an n-by-k Phi and the
    array with D_z f Phi, both row-major: forward mode in k directions over
    the partials the blocks build forward over forward, row i summed over the
    nonzero partials of component i alone.  On B points, the columns of a z
    of shape (size, B), the same lines run on its rows (an array form
    compiled on the first such call).  A z of another shape raises
    :class:`DimensionMismatchError`.  Its ``switch(t, z)``, None if no block
    kinks, returns at the state z[:n] the arguments of the blocks' pos, neg
    and abs nodes and a - b of their min(a, b) and max(a, b), once per line
    and none on literals alone: the field kinks where one changes sign."""
    n, k = len(state), tangents
    index = {name: i for i, name in enumerate(state)}
    names = dict(zip(("t",) + tuple(state), (f"x{i}" for i in range(n + 1))))
    c = _Compiler()
    outputs = []
    for b in blocks:
        # one line list for all blocks keeps every generated name unique
        seeds = b.wrt if b.wrt or not k else [a for a in b.args if a in index]
        c.block({name: names[name] for name in b.args}, seeds, b.params, 2 if k and b.wrt else 1)
        terms = [g or _ZERO for v in map(c.node, b.exprs)
                 for g in ([v] if b.wrt is None else v.d or [None] * len(seeds))]
        # a seed t is not in the state, and neither are its partials
        outputs.append([Term(g, {index[s]: p for s, p in zip(seeds or (), g.d or ())
                                 if p is not None and s in index}, c) for g in terms])
    field = combine(outputs)
    ret = [t.value.text for t in field]
    for t in field:
        for i in range(k):
            row = None
            for j, p in sorted(t.d.items()):
                row = c.sum(0, row, "+", c.mul(0, p, _T(f"p{j}_{i}")))
            ret.append((row or _ZERO).text)
    size, ret = n + n * k, ", ".join(ret)
    unpacked = ", ".join([f"x{i + 1}" for i in range(n)]
                         + [f"p{j}_{i}" for j in range(n) for i in range(k)])
    unpack = [f"{unpacked}, = z"] if size else []  # an empty state has nothing to unpack
    by_columns = None

    def columns(t, z):
        nonlocal by_columns
        if z.ndim != 2 or len(z) != size:
            raise DimensionMismatchError(f"state has shape {z.shape}, expected ({size}, [B])")
        if by_columns is None:
            by_columns = _define(unpack + c.lines, f"_rows(z, [{ret}])")
        return by_columns(t, z)

    head = ["if z.__class__ is not list:", f"    if z.shape != ({size},): return _columns(x0, z)",
            "    z = z.tolist()"]
    fn = _define(head + unpack + c.lines, f"_array([{ret}])",
                 dict(_FLOAT_NAMESPACE, _columns=columns))
    # literals never change sign; the domain checks are the field's to raise
    kinks = [g for g in c.kinks if g.isidentifier()]
    values = [f"{''.join(f'x{i + 1}, ' for i in range(n))}= z[:{n}].tolist()"] * (n > 0)
    fn.switch = _define(values + [line for line in c.lines if line[:3] != "if "],
                        f"({', '.join(kinks)},)", _FLOAT_NAMESPACE) if kinks else None
    return fn


def _evaluate(e, binding, wrt=None):
    """``e`` compiled by :func:`compile_blocks` as one block over the names of
    ``binding`` that it reads, and called at one point on floats or, where a
    read value is an array, on the read values broadcast together, one column
    per element: the rows of the block's outputs, each of the broadcast shape.
    Bound values are read as float64."""
    read = free_variables(e)
    args = tuple(name for name in binding if name in read)
    state = [name for name in args if name != "t"]
    fn = compile_blocks([ExprBlock((e,), args, wrt)], state, lambda outputs: outputs[0])
    shape = np.broadcast_shapes(*(np.shape(binding[name]) for name in args))
    if not shape:
        return fn(float(binding["t"]) if "t" in args else 0.0,
                  [float(binding[name]) for name in state])
    cols = {name: np.broadcast_to(np.asarray(binding[name], dtype=float), shape).ravel()
            for name in args}
    # an empty state is a (0, B) block, which the column form takes as B points
    out = fn(cols.get("t", 0.0), np.reshape([cols[name] for name in state],
                                            (len(state), math.prod(shape))))
    return out.reshape(out.shape[:1] + shape)


def eval_expr(e, binding):
    """Evaluate ``e`` with the given name->value binding of floats or arrays.

    Raises :class:`UnboundVariableError` or :class:`DomainError`.
    """
    return _evaluate(e, binding)[0]


def grad_expr(e, var_names, binding):
    """Forward-mode gradient of ``e`` with respect to ``var_names`` at ``binding``.

    Returns an array of shape ``(len(var_names),) + shape(value)``; bindings
    may be floats or arrays.  pos/neg/abs use the fixed subgradient 0 at
    their kink, so the result is deterministic everywhere.
    """
    wrt = tuple(var_names)
    for name in wrt:
        if name not in binding:
            raise UnboundVariableError(f"variable {name!r} is not bound")
    return _evaluate(e, binding, wrt)


def _children(e):
    """The operands of the node ``e``."""
    if isinstance(e, (Num, Var)):
        return ()
    if isinstance(e, Neg):
        return (e.arg,)
    if isinstance(e, BinOp):
        return (e.lhs, e.rhs)
    if isinstance(e, Call):
        return e.args
    raise TypeError(f"not an Expr node: {e!r}")


def _fold(e, visit):
    """``visit(node, [results of its operands])`` for every node of ``e``,
    operands first and left to right, with a stack of its own: a sum is a
    tree as deep as it has terms, too deep for Python's recursion."""
    results, stack = [], [(e, False)]
    while stack:
        node, ready = stack.pop()
        operands = _children(node)
        if ready or not operands:
            args = results[len(results) - len(operands):]
            del results[len(results) - len(operands):]
            results.append(visit(node, args))
        else:
            stack.append((node, True))
            stack.extend((a, False) for a in reversed(operands))
    return results[0]


def substitute(e, mapping):
    """Replace variables: ``mapping`` maps a name to a new name or to an Expr, kept as is."""
    def rebuild(node, args):
        if isinstance(node, Var):
            new = mapping.get(node.name, node.name)
            return new if isinstance(new, Expr) else Var(new)
        if isinstance(node, Neg):
            return Neg(*args)
        if isinstance(node, BinOp):
            return BinOp(node.op, *args)
        return Call(node.fn, tuple(args)) if isinstance(node, Call) else node

    return _fold(e, rebuild)


def free_variables(e):
    """Set of variable names appearing in ``e``."""
    return _fold(e, lambda node, args: {node.name} if isinstance(node, Var)
                 else set().union(*args))


# --------------------------------------------------------------------------
# Unparsing
# --------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _unparse(e, args):
    """Return (text, precedence) of ``e`` from those of its operands ``args``.
    ``parse(unparse(parse(s)))`` is the same AST."""
    if isinstance(e, Num):
        if e.value < 0:  # never produced by the parser, but be safe
            return f"({e.value!r})", _PREC["atom"]
        return repr(e.value), _PREC["atom"]
    if isinstance(e, Var):
        return e.name, _PREC["atom"]
    if isinstance(e, Neg):
        txt, prec = args[0]
        if prec < _PREC["neg"]:
            txt = f"({txt})"
        return f"-{txt}", _PREC["neg"]
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(a[0] for a in args)})", _PREC["atom"]
    p = _PREC[e.op]
    (lt, lp), (rt, rp) = args
    if e.op == "^":
        # right-associative; unary minus below ^ must be parenthesized on the left
        if lp < _PREC["atom"]:
            lt = f"({lt})"
        if rp < p:
            rt = f"({rt})"
    else:
        if lp < p:
            lt = f"({lt})"
        # + - * / are left-associative: a right operand at equal precedence
        # (possible via explicit parens in the source) must keep its parens
        if rp <= p:
            rt = f"({rt})"
    return f"{lt} {e.op} {rt}", p


def unparse(e):
    return _fold(e, _unparse)[0]
