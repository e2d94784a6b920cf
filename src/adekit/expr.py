"""Closed-form expressions: AST, parser, printer, calculus, expansion.

The expression language covers the variable z, Gaussian-rational literals,
pi, integer powers, the four ring operations, exp/sin/cos, references to
named functions from a definition environment, composition ``name(arg)``
and compositional iteration ``iter(name, n)``.

Two extra node features exist only internally and never come out of the
user grammar: a derivative order on named references (``f''`` produced by
:func:`differentiate`) and composition with an arbitrary closed outer
expression (produced by inlining iterates).

Names are resolved in one place: :func:`inline` is the only reader of a
definition environment.  :func:`eval_numeric` and the log-polar walker
inline once and then walk a closed tree, without named references or
iterates.  :func:`expand_series` inlines only the outers of compositions
and the iterates, which it composes by substitution.  A reference f^(n)
read at z, bare or composed with z as the parser writes ``f''(z)``,
stays a leaf: its series is the n-th derivative of one expansion of f's
inlined body, taken through the order of the expansion plus the highest
n the expression reads.  A frozen environment keeps
those series for its latest center, order and domain, so the calls that
share them expand each body once.

Every walker, the log-polar block walker of :mod:`adekit.growth` included,
is one loop over the same post-order: the distinct subtrees of an
expression, children first, each with the positions of its operands.  It
is built once per expression object with an explicit stack, so depth
costs no recursion, and a subtree that a derivative tree repeats is
folded once.

Text has one reader: :func:`parse`, :func:`parse_pair` and
:func:`adekit.diffpoly.parse_ade` run the same recursive-descent parser,
:func:`parse_text`, with their own constructors and names.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .scalars import (
    Frac,
    GR_I,
    GR_ONE,
    GaussianRational,
    Poly,
    gauss_str,
)
from .series import Domain, PowerSeries, SeriesError, series_exp, series_sin_cos


class ExprError(ValueError):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class EvalError(ExprError):
    pass


# ---------------------------------------------------------------------------
# AST


class Expression:
    """An immutable expression node.  A node type declares its fields as
    class annotations, in order, a default as a class value; a node is
    built from its fields by position or by name, equals a node of its own
    type with equal fields, hashes as the tuple of its fields and prints as
    ``Add(left=..., right=...)``, as a frozen dataclass would, without the
    code generation a dataclass costs at import."""

    _FIELDS = ()

    def __init_subclass__(cls):
        cls._FIELDS = names = tuple(cls.__dict__.get("__annotations__", ()))
        cls.__init__ = _initializer(cls, names)

    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self._FIELDS])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._FIELDS)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __str__(self):
        return to_text(self)

    # the post-order every walker folds, built once per node object; a
    # cached_property writes the instance dict, past __setattr__
    _subtrees = cached_property(lambda self: _postorder(self))


def _initializer(cls, names: tuple):
    """The __init__ of a node type with at most two fields: a template
    whose parameters are renamed to the fields, with the class's defaults,
    so that Python itself binds a call by position or by name and reports
    a bad one.  Fields are stored with object.__setattr__, as a frozen
    dataclass stores them; writing self.__dict__ instead would give every
    node a dict object of its own, which costs memory and slows every
    field read."""
    setfield = object.__setattr__
    if not names:

        def __init__(self):
            pass

    elif len(names) == 1:
        (first,) = names

        def __init__(self, a):
            setfield(self, first, a)

    else:
        first, second = names

        def __init__(self, a, b):
            setfield(self, first, a)
            setfield(self, second, b)

    __init__.__code__ = __init__.__code__.replace(co_varnames=("self",) + names)
    __init__.__defaults__ = tuple(cls.__dict__[n] for n in names if n in cls.__dict__) or None
    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return __init__


class Var(Expression):
    pass


class Lit(Expression):
    value: GaussianRational


class PiConst(Expression):
    pass


class Add(Expression):
    left: Expression
    right: Expression


class Sub(Expression):
    left: Expression
    right: Expression


class Mul(Expression):
    left: Expression
    right: Expression


class Div(Expression):
    left: Expression
    right: Expression


class Pow(Expression):
    base: Expression
    exponent: int


class Exp(Expression):
    arg: Expression


class Sin(Expression):
    arg: Expression


class Cos(Expression):
    arg: Expression


class FuncRef(Expression):
    """order-th derivative of a named function, as a function of z."""

    name: str
    order: int = 0


class Compose(Expression):
    """outer evaluated at inner(z); outer is read as a function of z."""

    outer: Expression
    inner: Expression


class Iterate(Expression):
    name: str
    count: int


_CALLS = {Exp: "exp", Sin: "sin", Cos: "cos"}
_CALL_TYPES = {name: cls for cls, name in _CALLS.items()}

Z = Var()
ZERO = Lit(GaussianRational(0))
ONE = Lit(GR_ONE)


def lit(x) -> Lit:
    return Lit(GaussianRational.coerce(x))


def _is_zero(e) -> bool:
    return isinstance(e, Lit) and not e.value


def _is_one(e) -> bool:
    return isinstance(e, Lit) and e.value == GR_ONE


# Smart constructors: fold literal arithmetic and the obvious identities.
# Used by the parser (literal normalization) and by differentiate, so that
# derivatives come out without dangling *1 and +0 noise.


def add(a: Expression, b: Expression) -> Expression:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if isinstance(a, Lit) and isinstance(b, Lit):
        return Lit(a.value + b.value)
    return Add(a, b)


def sub(a: Expression, b: Expression) -> Expression:
    if _is_zero(b):
        return a
    if isinstance(a, Lit) and isinstance(b, Lit):
        return Lit(a.value - b.value)
    return Sub(a, b)


def mul(a: Expression, b: Expression) -> Expression:
    if _is_zero(a) or _is_zero(b):
        return ZERO
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    if isinstance(a, Lit) and isinstance(b, Lit):
        return Lit(a.value * b.value)
    return Mul(a, b)


def div(a: Expression, b: Expression) -> Expression:
    if _is_zero(b):
        raise ZeroDivisionError("division by zero in a constant expression")
    if _is_zero(a):
        return ZERO
    if _is_one(b):
        return a
    if isinstance(a, Lit) and isinstance(b, Lit):
        return Lit(a.value / b.value)
    return Div(a, b)


def neg(a: Expression) -> Expression:
    if isinstance(a, Lit):
        return Lit(-a.value)
    return Mul(Lit(-GR_ONE), a)


def pow_(a: Expression, n: int) -> Expression:
    if n < 0:
        raise ExprError("negative exponents are not in the grammar; use division")
    if n == 0:
        return ONE
    if n == 1:
        return a
    if isinstance(a, Lit):
        return Lit(a.value**n)
    return Pow(a, n)


def iterate(name: str, count: int) -> Expression:
    if count < 1:
        raise ExprError("iterate count must be a positive integer")
    if count == 1:
        return FuncRef(name)
    return Iterate(name, count)


# ---------------------------------------------------------------------------
# Post-order: the one traversal behind every walker

# Operand fields are the expression-typed fields, except Compose.outer: a
# function of z that a walker folds on its own, at the value of the inner,
# and that keys a composition by its identity.
_OPERANDS = {
    cls: tuple(n for n in cls._FIELDS if cls.__annotations__[n] == "Expression" and n != "outer")
    for cls in Expression.__subclasses__()
}
_SCALARS = {cls: tuple(n for n in cls._FIELDS if cls.__annotations__[n] != "Expression") for cls in _OPERANDS}


def _postorder(root: Expression) -> tuple:
    """The distinct subtrees of root, children first and root last, each as
    (node, positions of its operands in the result).  Subtrees merge under
    flat keys, (type, operand positions, scalar fields): hashing the nodes
    would recurse through ``Expression.__hash__``, which hashes the fields."""
    entries = []
    at = {}  # id(node) -> position of its subtree
    position = {}  # flat key -> position
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in at:
            continue
        kind = type(node)
        if kind not in _OPERANDS:
            raise TypeError(f"not an expression node: {node!r}")
        operands = [getattr(node, name) for name in _OPERANDS[kind]]
        pending = [c for c in operands if id(c) not in at]
        if pending:
            # back to this node once its operands are placed, left first
            stack += [node, *reversed(pending)]
            continue
        ops = tuple(at[id(c)] for c in operands)
        scalars = (id(node.outer),) if kind is Compose else tuple(getattr(node, n) for n in _SCALARS[kind])
        k = at[id(node)] = position.setdefault((kind, ops, scalars), len(entries))
        if k == len(entries):
            entries.append((node, ops))
    return tuple(entries)


# ---------------------------------------------------------------------------
# Definition environment


_RESERVED = {"z", "i", "pi", "exp", "sin", "cos", "iter"}


class DefinitionEnvironment:
    """Ordered named definitions; a name may only use earlier names, which
    rules out cycles by construction.  Once frozen, the environment keeps
    the series of its definitions for the latest expansion key (see
    :func:`expand_series`); a new key replaces them."""

    def __init__(self):
        self._defs: dict = {}
        self._frozen = False
        self._memo = None

    def define(self, name: str, body: Expression):
        if self._frozen:
            raise ExprError("definition environment is frozen")
        if name in _RESERVED:
            raise ExprError(f"{name!r} is a reserved name")
        if name in self._defs:
            raise ExprError(f"duplicate definition of {name!r}")
        if not isinstance(body, Expression):
            raise TypeError("definition body must be an Expression")
        self._defs[name] = body

    def define_text(self, name: str, text: str):
        self.define(name, parse(text, env=self))

    def freeze(self):
        self._frozen = True

    def lookup(self, name: str) -> Expression:
        try:
            return self._defs[name]
        except KeyError:
            raise ExprError(f"unknown function {name!r}") from None

    def __contains__(self, name):
        return name in self._defs


EMPTY_ENV = DefinitionEnvironment()
EMPTY_ENV.freeze()


# ---------------------------------------------------------------------------
# Parser: one recursive-descent reader of the grammar that expressions and
# differential polynomials share; its caller says what to build

_TOKEN_OPS = set("+-*/^(),")

# parentheses, call arguments and unary minus signs around any one factor;
# each level costs the parser at most four frames, so this many stay within
# Python's default recursion limit under a caller's own frames
MAX_NESTING = 200


def _lex(text: str):
    toks = []
    k = 0
    n = len(text)
    while k < n:
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch in _TOKEN_OPS:
            toks.append((ch, ch, k))
            k += 1
            continue
        if ch.isdecimal():
            j = k
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(("int", text[k:j], k))
            k = j
            continue
        if ch.isalpha() or ch == "_":
            j = k
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[k:j], k))
            k = j
            continue
        if ch == "'":
            j = k
            while j < n and text[j] == "'":
                j += 1
            toks.append(("prime", text[k:j], k))
            k = j
            continue
        raise ParseError(f"unexpected character {ch!r}", k)
    toks.append(("end", "", n))
    return toks


# What a parse builds: a constructor for each operation of the grammar and a
# reader for name tokens; see parse_text.
Grammar = namedtuple("Grammar", "number neg add sub mul div power name")


class _Parser:
    def __init__(self, text: str, grammar: Grammar):
        self.toks = _lex(text)
        self.pos = 0
        self.g = grammar
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str):
        t = self.take()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, found {t[1]!r}" if t[1] else f"expected {kind!r}", t[2])
        return t

    def end(self):
        t = self.peek()
        if t[0] != "end":
            raise ParseError(f"unexpected {t[1]!r}", t[2])

    def expr(self):
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            e = self.g.add(e, rhs) if op == "+" else self.g.sub(e, rhs)
        return e

    def term(self):
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, oppos = self.take()
            rhs = self.factor()
            try:
                e = self.g.mul(e, rhs) if op == "*" else self.g.div(e, rhs)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(str(exc), oppos) from None
        return e

    def factor(self):
        # every level of nesting enters factor once more
        if self.depth > MAX_NESTING:
            raise ParseError("expression nested too deeply", self.peek()[2])
        self.depth += 1
        if self.peek()[0] == "-":
            # negation binds a whole factor
            self.take()
            e = self.g.neg(self.factor())
        else:
            e = self.base()
            if self.peek()[0] == "^":
                self.take()
                e = self.g.power(e, int(self.expect("int")[1]))
        self.depth -= 1
        return e

    def base(self):
        kind, text, pos = self.take()
        if kind == "int":
            # rational := integer ('/' positive-integer)?
            if self.peek()[0] == "/" and self.toks[self.pos + 1][0] == "int":
                self.take()
                den = int(self.expect("int")[1])
                if den == 0:
                    raise ParseError("zero denominator in rational literal", pos)
                return self.g.number(Fraction(int(text), den))
            return self.g.number(int(text))
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "name":
            e = self.g.name(self, text, pos)
            if callable(e):
                # a call's argument is read here, not by the name reader, so
                # nested calls cost no more stack than nested parentheses
                self.expect("(")
                e = e(self.expr())
                self.expect(")")
            return e
        raise ParseError(f"expected an expression, found {text!r}" if text else "unexpected end of input", pos)


def parse_text(text: str, grammar: Grammar):
    """The value of text under the grammar that expressions and equations
    share: sums, products, quotients, unary minus, powers to nonnegative
    integer exponents, rational literals and parentheses.

    ``grammar.number`` takes an int or a Fraction.  ``grammar.mul`` and
    ``grammar.div`` reject their operands by raising ValueError or
    ZeroDivisionError, reported at the operator.  ``grammar.name(parser,
    text, offset)`` reads a name token and any tokens after it that belong
    to the name; it returns a value, or a function that the parser applies
    to the parenthesized expression that follows.
    """
    p = _Parser(text, grammar)
    value = p.expr()
    p.end()
    return value


def _expression_grammar(env: DefinitionEnvironment | None) -> Grammar:
    env = env if env is not None else EMPTY_ENV

    def name(parser, text, pos):
        if text == "z":
            return Z
        if text == "i":
            return Lit(GR_I)
        if text == "pi":
            return PiConst()
        if text in _CALL_TYPES:
            return _CALL_TYPES[text]
        if text == "iter":
            parser.expect("(")
            nt = parser.expect("name")
            if nt[1] not in env:
                raise ParseError(f"unknown function {nt[1]!r}", nt[2])
            parser.expect(",")
            ct = parser.expect("int")
            count = int(ct[1])
            if count < 1:
                raise ParseError("iterate count must be positive", ct[2])
            parser.expect(")")
            return iterate(nt[1], count)
        if text in env:
            ref = FuncRef(text, len(parser.take()[1]) if parser.peek()[0] == "prime" else 0)
            return (lambda arg: Compose(ref, arg)) if parser.peek()[0] == "(" else ref
        raise ParseError(f"unknown identifier {text!r}", pos)

    return Grammar(lit, neg, add, sub, mul, div, pow_, name)


def parse(text: str, env: DefinitionEnvironment | None = None) -> Expression:
    return parse_text(text, _expression_grammar(env))


def parse_pair(text: str, env: DefinitionEnvironment | None = None) -> tuple:
    """The two expressions of a pair ``f,g``."""
    p = _Parser(text, _expression_grammar(env))
    first = p.expr()
    p.expect(",")
    second = p.expr()
    p.end()
    return first, second


# ---------------------------------------------------------------------------
# Printer (minimal parenthesization; output reparses to the same AST)

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4


_LEVELS = {Add: _LEVEL_ADD, Sub: _LEVEL_ADD, Mul: _LEVEL_MUL, Div: _LEVEL_MUL, Pow: _LEVEL_POW}


def _level(e: Expression) -> int:
    if isinstance(e, Lit):
        # mixed literals print as a sum; an imaginary one with a scale
        # prints as a product; both need parens inside tighter contexts
        if e.value.re and e.value.im:
            return _LEVEL_ADD
        if e.value.im and e.value.im not in (1, -1):
            return _LEVEL_MUL
    return _LEVELS.get(type(e), _LEVEL_ATOM)


def _wrap(e: Expression, txt: str, need: int) -> str:
    return f"({txt})" if _level(e) < need else txt


_SMART = {Add: add, Sub: sub, Mul: mul, Div: div}
_INFIX = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def to_text(e: Expression) -> str:
    texts = []
    for node, ops in e._subtrees:
        t = type(node)
        if t is Var or t is PiConst:
            txt = "z" if t is Var else "pi"
        elif t is Lit:
            txt = gauss_str(node.value)
        elif t is Add or t is Sub:
            # a sum on the right keeps its parentheses; a mixed literal does not
            rhs = f"({texts[ops[1]]})" if isinstance(node.right, (Add, Sub)) else texts[ops[1]]
            txt = f"{texts[ops[0]]}{_INFIX[t]}{rhs}"
        elif t is Mul or t is Div:
            # on the right, whatever binds looser than a power keeps its parentheses
            lhs = _wrap(node.left, texts[ops[0]], _LEVEL_MUL)
            txt = f"{lhs}{_INFIX[t]}{_wrap(node.right, texts[ops[1]], _LEVEL_POW)}"
        elif t is Pow:
            base = texts[ops[0]]
            if _level(node.base) < _LEVEL_ATOM or base.startswith("-"):
                base = f"({base})"
            txt = f"{base}^{node.exponent}"
        elif t in _CALLS:
            txt = f"{_CALLS[t]}({texts[ops[0]]})"
        elif t is FuncRef:
            txt = node.name + "'" * node.order
        elif t is Compose:
            outer = to_text(node.outer)
            txt = f"{outer}({texts[ops[0]]})" if isinstance(node.outer, FuncRef) else f"({outer} @ {texts[ops[0]]})"
        else:
            txt = f"iter({node.name},{node.count})"
        texts.append(txt)
    return texts[-1]


# ---------------------------------------------------------------------------
# Calculus and structural transforms


def differentiate(e: Expression) -> Expression:
    """Purely syntactic derivative; named references gain a prime."""
    ds = []
    for node, ops in e._subtrees:
        t = type(node)
        d1 = ds[ops[0]] if ops else None
        if t is Var or t is Lit or t is PiConst:
            d = ONE if t is Var else ZERO
        elif t is Add or t is Sub:
            d = _SMART[t](d1, ds[ops[1]])
        elif t is Mul:
            d = add(mul(d1, node.right), mul(node.left, ds[ops[1]]))
        elif t is Div:
            d = div(sub(mul(d1, node.right), mul(node.left, ds[ops[1]])), pow_(node.right, 2))
        elif t is Pow:
            d = mul(mul(lit(node.exponent), pow_(node.base, node.exponent - 1)), d1)
        elif t is Exp:
            d = mul(node, d1)
        elif t is Sin or t is Cos:
            d = mul(Cos(node.arg) if t is Sin else neg(Sin(node.arg)), d1)
        elif t is FuncRef:
            d = FuncRef(node.name, node.order + 1)
        elif t is Compose:
            d = mul(Compose(differentiate(node.outer), node.inner), d1)
        else:
            # the chain rule down the iterates: f'(f^(n-1)) * ... * f'(f) * f'
            d = FuncRef(node.name, 1)
            for k in range(1, node.count):
                d = mul(Compose(FuncRef(node.name, 1), iterate(node.name, k)), d)
        ds.append(d)
    return ds[-1]


def nth_derivative(e: Expression, n: int) -> Expression:
    if n < 0:
        raise ExprError("derivative count must be nonnegative")
    for _ in range(n):
        e = differentiate(e)
    return e


def inline(e: Expression, env: DefinitionEnvironment) -> Expression:
    """Resolve every named reference and iterate to a closed expression."""
    return _substitute(e, env, lambda node: nth_derivative(inline(env.lookup(node.name), env), node.order))


def _substitute(e: Expression, env: DefinitionEnvironment, reference) -> Expression:
    """e with each composition's outer and each iterate inlined, and each
    reference read at z replaced by reference(node).  A reference composed
    with z itself, as the parser writes ``f''(z)``, is read at z."""
    out = []
    for node, ops in e._subtrees:
        t = type(node)
        if t in _SMART:
            v = _SMART[t](out[ops[0]], out[ops[1]])
        elif t in _CALLS:
            v = t(out[ops[0]])
        elif t is Pow:
            v = pow_(out[ops[0]], node.exponent)
        elif t is FuncRef:
            v = reference(node)
        elif t is Compose and type(node.outer) is FuncRef and type(node.inner) is Var:
            v = reference(node.outer)
        elif t is Compose:
            v = Compose(inline(node.outer, env), out[ops[0]])
        elif t is Iterate:
            v = body = inline(FuncRef(node.name), env)
            for _ in range(node.count - 1):
                v = Compose(body, v)
        else:
            v = node
        out.append(v)
    return out[-1]


# ---------------------------------------------------------------------------
# Numeric evaluation

_ARITH = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
_CMATH = {Exp: cmath.exp, Sin: cmath.sin, Cos: cmath.cos}


def eval_numeric(e: Expression, point: complex, env: DefinitionEnvironment | None = None) -> complex:
    """Evaluate at a point; an overflow comes back as an infinite complex
    rather than an exception."""
    closed = inline(e, env if env is not None else EMPTY_ENV)
    try:
        return _eval(closed, complex(point))
    except OverflowError:
        return complex(math.inf, 0.0)


def _eval(e: Expression, pt: complex) -> complex:
    vals = []
    for node, ops in e._subtrees:
        t = type(node)
        if t is Var:
            v = pt
        elif t is Lit:
            v = node.value.to_complex()
        elif t is PiConst:
            v = complex(math.pi)
        elif t is Div and vals[ops[1]] == 0:
            raise EvalError("division by zero during evaluation")
        elif t in _ARITH:
            v = _ARITH[t](vals[ops[0]], vals[ops[1]])
        elif t is Pow:
            v = vals[ops[0]] ** node.exponent
        elif t in _CMATH:
            v = _CMATH[t](vals[ops[0]])
        elif t is Compose:
            v = _eval(node.outer, vals[ops[0]])
        else:
            raise TypeError(f"not a closed expression node: {node!r}")
        vals.append(v)
    return vals[-1]


# ---------------------------------------------------------------------------
# Exact readings: constants and rational functions of z


def scalar_of(e: Expression) -> Frac:
    """Exact value of a z-free expression as a scalar fraction: its
    expansion to order 0, so that a constant meets every check an exact
    series meets, the zero-by-value check of its divisions included."""
    if any(type(node) is Var for node, _ in e._subtrees):
        raise ExprError("expression depends on z where a constant is required")
    return expand_series(e, 0, 0).coeffs[0]


def frac_of_expression(e: Expression) -> Frac:
    """Read an exp/sin/cos-free expression as a rational function of z."""
    return _frac_fold(e)


def _frac_fold(e: Expression) -> Frac:
    vals = []
    for node, ops in e._subtrees:
        t = type(node)
        if t is Lit:
            v = Frac.of(node.value)
        elif t is PiConst:
            v = Frac.var("pi")
        elif t is Var:
            v = Frac.var("z")
        elif t in _ARITH:
            v = _ARITH[t](vals[ops[0]], vals[ops[1]])
        elif t is Pow:
            v = vals[ops[0]] ** node.exponent
        else:
            raise ExprError(f"{t.__name__} node is not rational in z")
        vals.append(v)
    return vals[-1]


def expression_of_frac(f: Frac, z_expr: Expression = Z) -> Expression:
    """Rebuild an expression from a rational function, substituting z_expr
    for the variable z."""

    def poly_expr(p: Poly) -> Expression:
        total = ZERO
        for mono, coeff in sorted(p.terms.items()):
            term = Lit(coeff)
            for v, k in mono:
                # constant keys are canonical printed forms, so they reparse
                base = z_expr if v == "z" else (PiConst() if v == "pi" else parse(v))
                term = mul(term, pow_(base, k))
            total = add(total, term)
        return total

    num = poly_expr(f.num)
    if f.den.is_one():
        return num
    return div(num, poly_expr(f.den))


# ---------------------------------------------------------------------------
# Series expansion


def expand_series(
    e: Expression,
    center,
    order: int,
    mode: str = "exact",
    env: DefinitionEnvironment | None = None,
) -> PowerSeries:
    """Taylor coefficients of e around z = center.

    In exact mode the center is a scalar :class:`Frac` (or anything
    coercible); values of exp/sin/cos at nonzero constants are adjoined as
    symbols subject to the quarter-period rule.  In numeric mode the center
    is complex and everything is floating point.  Iterates and the outers
    of compositions are inlined from env; a reference f^(n) read at z is
    the n-th derivative of f's series, which a frozen env keeps for the
    latest :func:`expansion_key`.
    """
    if order < 0:
        raise ExprError("expansion order must be nonnegative")
    dom = _domain(mode)
    env = env if env is not None else EMPTY_ENV
    resolved = _substitute(e, env, lambda node: node)
    z = _z_series(dom, dom.center(center), order)
    refs = {(node.name, node.order) for node, _ in resolved._subtrees if type(node) is FuncRef}
    if refs:
        if env._frozen:
            key = expansion_key(center, order, dom)
            if env._memo is None or env._memo.key != key:
                env._memo = _Expansions(key, env, z)
            memo = env._memo
        else:
            memo = _Expansions(None, env, z)
        refs = memo.reads(refs)
    return _expand(resolved, z, refs)


def expansion_key(center, order: int, mode) -> tuple:
    """What an expansion around center through order shares with another
    besides its expression: the domain, the order and the center's printed
    form, which tells apart the numeric centers 0.0 and -0.0."""
    dom = _domain(mode)
    return dom, order, dom.text(dom.coeff(dom.center(center)))


def _domain(mode) -> Domain:
    try:
        return Domain.of(mode)
    except SeriesError:
        raise ExprError(f"unknown mode {mode!r}") from None


def _z_series(dom: Domain, c, order: int) -> PowerSeries:
    return PowerSeries(dom, ([c, dom.one] + [dom.zero] * (order - 1))[: order + 1])


class _Expansions:
    """The series that references f^(n) read at z, for expansions around
    one center through one order.  Each definition's inlined body has one
    expanding Jet, grown as far as the highest n read so far.  The key is
    the :func:`expansion_key` a frozen environment keeps it under."""

    def __init__(self, key: tuple | None, env: DefinitionEnvironment, z: PowerSeries):
        self.key = key
        self._env, self._z, self._jets = env, z, {}

    def reads(self, refs) -> dict:
        """(name, n) -> series of f^(n) through the key's order, for each
        (name, n) of refs."""
        from .diffpoly import Jet

        depth = {}
        for name, n in refs:
            depth[name] = max(depth.get(name, 0), n)
        stacks = {}
        for name, n in depth.items():
            if name not in self._jets:
                self._jets[name] = Jet([], lambda m, name=name: _expand_definition(self._env, name, self._z, m))
            stacks[name] = self._jets[name].stack(n, self._z.order)
        return {(name, n): stacks[name][n] for name, n in refs}


def _expand_definition(env: DefinitionEnvironment, name: str, z: PowerSeries, order: int) -> PowerSeries:
    """The series of name's inlined body through order, around z's center."""
    if order != z.order:
        z = _z_series(z.domain, z.coeffs[0], order)
    return _expand(inline(FuncRef(name), env), z)


def _expand(e, z: PowerSeries, refs=None) -> PowerSeries:
    """Fold e with Var bound to the series z and each reference at z to its
    series in refs; a composition folds its outer with z bound to its
    inner's series."""
    dom, order = z.domain, z.order
    vals = []
    for node, ops in e._subtrees:
        t = type(node)
        if t is Var:
            v = z
        elif t is FuncRef:
            v = refs[node.name, node.order]
        elif t is Lit:
            v = PowerSeries.constant(dom.literal(node.value), order, dom)
        elif t is PiConst:
            v = PowerSeries.constant(dom.pi, order, dom)
        elif t in _ARITH:
            v = _ARITH[t](vals[ops[0]], vals[ops[1]])
        elif t is Pow:
            v = vals[ops[0]] ** node.exponent
        elif t is Exp:
            u0, tail = _split_const(vals[ops[0]])
            v = _scaled(series_exp(tail), dom.exp(u0))
        elif t is Sin or t is Cos:
            u0, tail = _split_const(vals[ops[0]])
            s, c = series_sin_cos(tail)
            s0, c0 = dom.sin(u0), dom.cos(u0)
            v = _scaled(s, c0) + _scaled(c, s0) if t is Sin else _scaled(c, c0) - _scaled(s, s0)
        elif t is Compose:
            v = _expand(node.outer, vals[ops[0]])
        else:
            raise TypeError(f"not a closed expression node: {node!r}")
        vals.append(v)
    return vals[-1]


def _scaled(s: PowerSeries, c) -> PowerSeries:
    """s times the constant c.  An exact 1 or 0 takes no product per
    coefficient; a numeric 1+0j still multiplies, since that product can
    flip a signed zero."""
    if isinstance(c, Frac):
        if c.is_one():
            return s
        if c.is_zero():
            return PowerSeries.zero(s.order, s.domain)
    return s.scale(c)


def _split_const(s: PowerSeries):
    """(constant term, series with constant term removed)."""
    return s.coeffs[0], PowerSeries(s.domain, (s.domain.zero,) + s.coeffs[1:])
