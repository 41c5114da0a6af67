"""Scalar expression language for specifying Hamiltonians and couplings.

Systems are written as plain text, e.g. ``"0.5*(mu*pos(u)^2 + nu*neg(u)^2 + v^2)"``,
parsed once into an immutable AST and compiled once (:func:`compile_expr`) into
straight-line numpy code returning either the value or the exact forward-mode
gradient with respect to chosen variables.  The compiled functions accept
floats or numpy arrays alike.

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
subgradient choice); min/max follow the second argument's derivative on ties.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, ExprSyntaxError, UnboundVariableError

__all__ = [
    "Expr", "Num", "Var", "Neg", "BinOp", "Call", "ExprBlock",
    "parse_expr", "compile_expr", "compile_blocks", "eval_expr", "grad_expr", "unparse",
    "free_variables", "has_kinks",
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

    def expression(self):
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                e = BinOp(text, e, self.term())
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                e = BinOp(text, e, self.factor())
            else:
                return e

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

    Raises :class:`ExprSyntaxError` (with a byte offset) on malformed input.
    """
    return _Parser(src).parse()


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


def _pow2(x):
    # x ** 2 as numpy evaluates it on an intermediate value (pow on scalars)
    return x ** 2 if isinstance(x, np.ndarray) else np.float64(x) ** 2


def _gradient(value, partials):
    shape = getattr(value, "shape", ())
    if not shape:
        # a partial never has more axes than the value it belongs to
        return np.array(partials, dtype=float)
    out = np.empty((len(partials),) + shape)
    for i, p in enumerate(partials):
        out[i] = p
    return out


_NAMESPACE = {
    "_sin": np.sin, "_cos": np.cos, "_exp": np.exp, "_log": np.log, "_sqrt": np.sqrt,
    "_abs": np.abs, "_sign": np.sign, "_arctan": np.arctan, "_power": np.power,
    "_round": np.round, "_maximum": np.maximum, "_minimum": np.minimum,
    "_square": np.square, "_pow2": _pow2, "_any": _any, "_where": _where, "_pos": _pos,
    "_gradient": _gradient, "_float": float, "_DomainError": DomainError,
    "_array": np.array, "_DimensionMismatchError": DimensionMismatchError,
}


def _literal(v):
    text = repr(float(v))
    if not np.isfinite(v):
        return f"_float({text!r})"
    return text if text[0].isdigit() else f"({text})"


def _prod(p, q):
    # multiplying by the seed partial 1.0 is exact, so it is left out
    return q if p == "1.0" else p if q == "1.0" else f"{p} * {q}"


def _product_rule(a, da, b, db):
    # d(ab) = da b + a db, in that order; a missing list is a passive factor
    return [None if p is None and q is None else _prod(a, q) if p is None
            else _prod(p, b) if q is None else f"{_prod(p, b)} + {_prod(a, q)}"
            for p, q in zip(da or [None] * len(db), db or [None] * len(da))]


class _Compiler:
    """Emits assignments for the nodes in evaluation order (children first).

    A node becomes its value ``aN`` and, when it depends on a ``wrt``
    variable, its partials ``dN_i``; ``None`` marks a partial that is
    structurally zero, which is never computed.  Only generated names,
    float literals and fixed messages reach the source text.
    """

    def __init__(self, args, wrt, params):
        self.args = {name: f"x{i}" for i, name in enumerate(args)}
        self.seeds = {name: i for i, name in enumerate(wrt or ())}
        self.params = params or {}
        self.lines = []

    def value(self, text):
        name = f"a{len(self.lines)}"
        self.lines.append(f"{name} = {text}")
        return name

    def partials(self, name, texts):
        out = list(texts)
        for i, text in enumerate(texts):
            if not (text is None or text == "1.0" or text.isidentifier()):
                out[i] = f"d{name[1:]}_{i}"
                self.lines.append(f"{out[i]} = {text}")
        return out

    def check(self, cond, message):
        self.lines.append(f"if _any({cond}): raise _DomainError({message!r})")

    def node(self, e):
        """(value operand, partials or None) of ``e``."""
        if isinstance(e, Num):
            return _literal(e.value), None
        if isinstance(e, Var):
            return self.var(e.name)
        if isinstance(e, Neg):
            a, da = self.node(e.arg)
            v = self.value(f"-{a}")
            return v, da and self.partials(v, [d and f"-{d}" for d in da])
        if isinstance(e, BinOp):
            return self.binop(e)
        if isinstance(e, Call):
            return self.call(e.fn, [self.node(a) for a in e.args], e.args)
        raise TypeError(f"not an Expr node: {e!r}")

    def var(self, name):
        if name in self.seeds:
            da = [None] * len(self.seeds)
            da[self.seeds[name]] = "1.0"
            return self.args[name], da
        if name in self.args:
            return self.args[name], None
        if name in self.params:
            return _literal(self.params[name]), None
        raise UnboundVariableError(f"variable {name!r} is not bound")

    def square(self, a, node):
        # seeds by a product, intermediates by pow(): numpy's ** 2 on 0-d
        # array seeds and on scalars, so gradients match a dual-number pass
        return self.value(f"_square({a})" if isinstance(node, Var) else f"_pow2({a})")

    def binop(self, e):
        a, da = self.node(e.lhs)
        b, db = self.node(e.rhs)
        op = e.op
        if op == "^":
            return self.power(a, da, b, db, e)
        if op == "/" and not (isinstance(e.rhs, Num) and e.rhs.value != 0.0):
            self.check(f"{b} == 0.0", "division by zero")
        v = self.value(f"{a} {op} {b}")
        if da is None and db is None:
            return v, None
        k = len(self.seeds)
        da = da or [None] * k
        pairs = zip(da, db or [None] * k)
        if op == "+":
            out = [p if q is None else q if p is None else f"{p} + {q}" for p, q in pairs]
        elif op == "-":
            out = [p if q is None else f"-{q}" if p is None else f"{p} - {q}" for p, q in pairs]
        elif op == "*":
            out = _product_rule(a, da, b, db)
        elif db is None:
            out = [p and f"{p} / {b}" for p in da]
        else:
            b2 = self.square(b, e.rhs)
            out = [None if p is None and q is None else f"-{_prod(a, q)} / {b2}" if p is None
                   else f"{_prod(p, b)} / {b2}" if q is None
                   else f"({_prod(p, b)} - {_prod(a, q)}) / {b2}" for p, q in pairs]
        return v, self.partials(v, out)

    def power(self, a, da, b, db, e):
        if db is not None:
            # variable exponent: exp(y ln x), differentiated through ln and exp
            self.check(f"{a} <= 0.0", "x^y with variable exponent requires x > 0")
            ln = self.value(f"_log({a})")
            dln = da and self.partials(ln, [p and f"{p} / {a}" for p in da])
            y = self.value(f"{b} * {ln}")
            dy = self.partials(y, _product_rule(b, db, ln, dln))
            v = self.value(f"_exp({y})")
            return v, self.partials(v, [p and _prod(v, p) for p in dy])
        const = e.rhs.value if isinstance(e.rhs, Num) else None
        if const is None or const != np.round(const):
            self.check(f"({b} != _round({b})) & ({a} < 0.0)",
                       "negative base with non-integer exponent")
        if const is None or const < 0:
            self.check(f"({b} < 0.0) & ({a} == 0.0)", "zero base with negative exponent")
        # numpy squares exactly (power(x, 2.0) == x * x, power(x, 1.0) == x)
        square = const == 2.0
        v = self.value(f"{a} * {a}" if square else f"_power({a}, {b})")
        if da is None:
            return v, None
        slope = self.value(f"2.0 * {a}" if square else
                           f"{b} * _power({a}, {b} - 1.0)")
        return v, self.partials(v, [p and _prod(slope, p) for p in da])

    def call(self, fn, args, nodes):
        (a, da) = args[0]
        if fn in ("min", "max"):
            b, db = args[1]
            v = self.value(f"_{fn}imum({a}, {b})")
            if da is None and db is None:
                return v, None
            take_a = self.value(f"{a} {'<' if fn == 'min' else '>'} {b}")
            k = len(self.seeds)
            return v, self.partials(v, [
                None if p is None and q is None else f"_where({take_a}, {p or '0.0'}, {q or '0.0'})"
                for p, q in zip(da or [None] * k, db or [None] * k)])
        if fn == "ln":
            self.check(f"{a} <= 0.0", "ln of a nonpositive value")
        if fn == "sqrt":
            self.check(f"{a} < 0.0", "sqrt of a negative value")
            if da is not None:
                self.check(f"{a} == 0.0", "sqrt not differentiable at 0")
        value_text = {"sin": "_sin({})", "cos": "_cos({})", "exp": "_exp({})",
                      "ln": "_log({})", "sqrt": "_sqrt({})", "abs": "_abs({})",
                      "atan": "_arctan({})", "pos": "_pos({})", "neg": "_pos(-{})"}[fn]
        v = self.value(value_text.format(a))
        if da is None:
            return v, None
        if fn == "ln":
            return v, self.partials(v, [p and f"{p} / {a}" for p in da])
        if fn == "sqrt":
            return v, self.partials(v, [p and f"{_prod('0.5', p)} / {v}" for p in da])
        if fn == "atan":
            q = self.value(f"1.0 + {self.square(a, nodes[0])}")
            return v, self.partials(v, [p and f"{p} / {q}" for p in da])
        slope = v if fn == "exp" else self.value({
            "sin": "_cos({})", "cos": "-_sin({})", "abs": "_sign({})",
            "pos": "_where({} > 0.0, 1.0, 0.0)", "neg": "_where({} < 0.0, -1.0, 0.0)",
        }[fn].format(a))
        return v, self.partials(v, [p and _prod(slope, p) for p in da])


def compile_expr(e, args, wrt=None, params=None):
    """Compile ``e`` once into a numpy function of the positional ``args``.

    The function returns the value of ``e``, or with ``wrt`` (names from
    ``args``) its forward-mode gradient, shape ``(len(wrt),) + shape(value)``.
    ``params`` maps further names to constants folded into the code.  Calls
    take floats or numpy arrays and raise :class:`DomainError` on a domain
    violation (with ``wrt``, also ``sqrt`` at 0); unbound names raise
    :class:`UnboundVariableError` here.
    """
    args = tuple(args)
    for name in wrt or ():
        if name not in args:
            raise UnboundVariableError(f"variable {name!r} is not bound")
    c = _Compiler(args, wrt, params)
    v, dv = c.node(e)
    partials = ", ".join(p or "0.0" for p in dv or [None] * len(wrt or ()))
    ret = v if wrt is None else f"_gradient({v}, [{partials}])"
    return _define(", ".join(f"x{i}" for i in range(len(args))), c.lines, ret)


def _define(signature, lines, ret):
    body = "".join(f"    {line}\n" for line in lines)
    src = f"def compiled({signature}):\n{body}    return {ret}\n"
    namespace = dict(_NAMESPACE)
    exec(compile(src, "<hamshoot.expr>", "exec"), namespace)
    return namespace["compiled"]


@dataclass(frozen=True, eq=False)
class ExprBlock:
    """The expressions behind a compiled block, kept for :func:`compile_blocks`.

    The block computes the values of ``exprs`` or, with ``wrt``, the gradient
    of its single expression, as a function of ``args`` with ``params`` folded
    in, exactly as ``compile_expr(exprs[0], args, wrt, params)`` does.
    """

    exprs: tuple
    args: tuple
    wrt: tuple = None
    params: dict = None


def compile_blocks(blocks, state, result):
    """Compile ``blocks`` into one straight-line function ``compiled(t, z)``.

    ``z`` is a 1-D array whose entries are named by ``state`` and unpacked to
    floats; each block's ``args`` are ``t`` and names from ``state``.
    ``result`` gets, per block, the operand texts of its outputs (the values
    of its expressions, or the partials of its gradient, ``0.0`` where
    structurally zero) and returns the source of the returned expression, in
    which ``_array`` is ``np.array``.  Each block emits the operations of its
    own :func:`compile_expr`, so every output is bitwise what that gives.  A
    ``z`` of the wrong size raises :class:`DimensionMismatchError`.
    """
    names = dict(zip(("t",) + tuple(state), (f"x{i}" for i in range(len(state) + 1))))
    c = _Compiler((), None, None)
    outputs = []
    for b in blocks:
        # one line list for all blocks keeps every generated name unique
        c.args = {name: names[name] for name in b.args}
        c.seeds = {name: i for i, name in enumerate(b.wrt or ())}
        c.params = b.params or {}
        outs = []
        for e in b.exprs:
            v, dv = c.node(e)
            outs += [v] if b.wrt is None else [p or "0.0" for p in dv or [None] * len(b.wrt)]
        outputs.append(outs)
    n = len(state)
    head = [f"if z.shape[-1] != {n}: raise _DimensionMismatchError("
            f"f'state has size {{z.shape[-1]}}, expected {n}')"]
    if n:
        head.append("".join(f"x{i + 1}, " for i in range(n)) + "= z.tolist()")
    return _define("x0, z", head + c.lines, result(outputs))


def eval_expr(e, binding):
    """Evaluate ``e`` with the given name->value binding of floats or arrays.

    Raises :class:`UnboundVariableError` or :class:`DomainError`.
    """
    return compile_expr(e, tuple(binding))(*binding.values())


def grad_expr(e, var_names, binding):
    """Forward-mode gradient of ``e`` with respect to ``var_names`` at ``binding``.

    Returns an array of shape ``(len(var_names),) + shape(value)``; bindings
    may be floats or arrays.  pos/neg/abs use the fixed subgradient 0 at
    their kink, so the result is deterministic everywhere.
    """
    wrt = tuple(var_names)
    fn = compile_expr(e, tuple(binding), wrt)
    return fn(*(np.asarray(val, dtype=float) if name in wrt else val
                for name, val in binding.items()))


def substitute(e, mapping):
    """Replace variables: ``mapping`` maps a name to a new name or to an Expr, kept as is."""
    if isinstance(e, Num):
        return e
    if isinstance(e, Var):
        new = mapping.get(e.name, e.name)
        return new if isinstance(new, Expr) else Var(new)
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, mapping))
    if isinstance(e, BinOp):
        return BinOp(e.op, substitute(e.lhs, mapping), substitute(e.rhs, mapping))
    if isinstance(e, Call):
        return Call(e.fn, tuple(substitute(a, mapping) for a in e.args))
    raise TypeError(f"not an Expr node: {e!r}")


def has_kinks(e):
    """True if ``e`` contains a non-smooth node (pos, neg, abs, min, max)."""
    if isinstance(e, (Num, Var)):
        return False
    if isinstance(e, Neg):
        return has_kinks(e.arg)
    if isinstance(e, BinOp):
        return has_kinks(e.lhs) or has_kinks(e.rhs)
    if isinstance(e, Call):
        return e.fn in ("pos", "neg", "abs", "min", "max") or any(has_kinks(a) for a in e.args)
    raise TypeError(f"not an Expr node: {e!r}")


def free_variables(e):
    """Set of variable names appearing in ``e``."""
    if isinstance(e, Num):
        return set()
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return free_variables(e.arg)
    if isinstance(e, BinOp):
        return free_variables(e.lhs) | free_variables(e.rhs)
    if isinstance(e, Call):
        out = set()
        for a in e.args:
            out |= free_variables(a)
        return out
    raise TypeError(f"not an Expr node: {e!r}")


# --------------------------------------------------------------------------
# Unparsing
# --------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _unparse(e):
    """Return (text, precedence).  ``parse(unparse(parse(s)))`` is the same AST."""
    if isinstance(e, Num):
        if e.value < 0:  # never produced by the parser, but be safe
            return f"({e.value!r})", _PREC["atom"]
        return repr(e.value), _PREC["atom"]
    if isinstance(e, Var):
        return e.name, _PREC["atom"]
    if isinstance(e, Neg):
        txt, prec = _unparse(e.arg)
        if prec < _PREC["neg"]:
            txt = f"({txt})"
        return f"-{txt}", _PREC["neg"]
    if isinstance(e, Call):
        args = ", ".join(_unparse(a)[0] for a in e.args)
        return f"{e.fn}({args})", _PREC["atom"]
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        lt, lp = _unparse(e.lhs)
        rt, rp = _unparse(e.rhs)
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
    raise TypeError(f"not an Expr node: {e!r}")


def unparse(e):
    return _unparse(e)[0]
