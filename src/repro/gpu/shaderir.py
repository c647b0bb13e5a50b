"""Fragment-shader intermediate representation ("mini-Cg").

Kernels in the paper are hand-coded Cg fragment programs compiled with the
``fp30`` profile.  Here a kernel body is an expression tree over float4
values built from the node types below; the tree is validated by
:mod:`repro.gpu.shader`, executed by :mod:`repro.gpu.interpreter` and
costed by :mod:`repro.gpu.cost`.

Semantics follow the hardware the paper targets:

* every value is a 4-lane float32 vector (R/G/B/A);
* ``TexFetch`` samples a bound texture at the current fragment's
  coordinate plus a *compile-time constant* offset, with clamp-to-edge
  addressing (``GL_CLAMP_TO_EDGE``) — the addressing mode all
  implementations in this library share so they agree at image borders;
* ``TexFetchDyn`` is a *dependent* fetch whose coordinate is computed by
  the shader itself (used by the final MEI stage to read the pixels the
  max/min stage selected);
* comparison ops return 0.0/1.0 masks and ``Select`` blends per lane,
  which is how branch-free fp30 code expresses conditionals;
* ``Dot`` is the DP4 instruction: a dot product over the four lanes,
  broadcast back to all lanes.

Shared subtrees are evaluated (and costed) once, the way a shader
compiler would assign them a register.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.errors import ShaderValidationError

#: Binary arithmetic/comparison opcodes and their lane-wise meaning.
BINARY_OPS = frozenset({
    "add", "sub", "mul", "div", "min", "max", "cmp_gt", "cmp_ge",
})

#: Unary opcodes.
UNARY_OPS = frozenset({"log", "exp", "neg", "abs", "floor", "rcp", "sqrt"})

_SWIZZLE_LANES = {"x": 0, "y": 1, "z": 2, "w": 3}


class Expr:
    """Base class of all IR nodes.  Nodes are immutable and hashable so
    they can be shared between kernels and memoized during evaluation."""

    __slots__ = ()

    def __getstate__(self):
        # The cached structural hash stays behind: str hashes are salted
        # per process, so another interpreter must recompute it.
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}


def _hash_once(cls):
    """Cache a frozen node's structural hash on first use.

    The dataclass hash of a node hashes its fields, and so its whole
    subtree; an interpreter memo lookup would re-walk the tree every
    time.  Nodes are immutable, so the value is computed once and kept
    in the instance.  Equality is the dataclass's, unchanged.
    """
    structural = cls.__hash__

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = structural(self)
        return cached

    cls.__hash__ = __hash__
    return cls


@_hash_once
@dataclass(frozen=True)
class Const(Expr):
    """A literal float4 (scalars are splatted to all four lanes)."""

    values: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if len(self.values) != 4:
            raise ShaderValidationError(
                f"Const needs 4 lanes, got {len(self.values)}")
        # IR literals are host-side program text (like constants in a .cg
        # file); the interpreter quantizes them to float32 at execution.
        object.__setattr__(
            self, "values",
            tuple(float(v) for v in self.values))  # reprolint: disable=dtype-discipline


@_hash_once
@dataclass(frozen=True)
class Uniform(Expr):
    """A float4 program parameter bound at launch time."""

    name: str


@_hash_once
@dataclass(frozen=True)
class TexFetch(Expr):
    """Sample ``sampler`` at (fragment + (dx, dy)), clamp-to-edge.

    ``dx`` moves along image width (samples), ``dy`` along height (lines).
    """

    sampler: str
    dx: int = 0
    dy: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "dx", int(self.dx))
        object.__setattr__(self, "dy", int(self.dy))


@_hash_once
@dataclass(frozen=True)
class TexFetchDyn(Expr):
    """Dependent fetch: sample ``sampler`` at an absolute texel coordinate
    computed by ``coord`` (lane x = column, lane y = row, rounded and
    clamped)."""

    sampler: str
    coord: Expr


@_hash_once
@dataclass(frozen=True)
class Op(Expr):
    """A lane-wise unary or binary operation."""

    op: str
    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if self.op in BINARY_OPS:
            if len(self.args) != 2:
                raise ShaderValidationError(
                    f"{self.op} expects 2 operands, got {len(self.args)}")
        elif self.op in UNARY_OPS:
            if len(self.args) != 1:
                raise ShaderValidationError(
                    f"{self.op} expects 1 operand, got {len(self.args)}")
        else:
            raise ShaderValidationError(f"unknown opcode {self.op!r}")
        for a in self.args:
            if not isinstance(a, Expr):
                raise ShaderValidationError(
                    f"{self.op} operand {a!r} is not an Expr")


@_hash_once
@dataclass(frozen=True)
class Dot(Expr):
    """DP4: sum over lanes of a*b, broadcast to all lanes."""

    a: Expr
    b: Expr


@_hash_once
@dataclass(frozen=True)
class Swizzle(Expr):
    """Lane shuffle, e.g. ``Swizzle(v, "xxxx")`` broadcasts lane x."""

    source: Expr
    pattern: str

    def __post_init__(self) -> None:
        if len(self.pattern) != 4 or any(c not in _SWIZZLE_LANES
                                         for c in self.pattern):
            raise ShaderValidationError(
                f"swizzle pattern must be 4 chars of xyzw, got "
                f"{self.pattern!r}")

    def lane_indices(self) -> tuple[int, int, int, int]:
        return tuple(_SWIZZLE_LANES[c] for c in self.pattern)  # type: ignore


@_hash_once
@dataclass(frozen=True)
class Combine(Expr):
    """Build a float4 from the x lanes of four expressions."""

    x: Expr
    y: Expr
    z: Expr
    w: Expr


@_hash_once
@dataclass(frozen=True)
class Select(Expr):
    """Per-lane blend: where ``cond`` != 0 take ``if_true`` else
    ``if_false`` (the CMP instruction pattern)."""

    cond: Expr
    if_true: Expr
    if_false: Expr


@_hash_once
@dataclass(frozen=True)
class FragCoord(Expr):
    """The fragment's own integer texel coordinate as a float4
    (x = column, y = row, z = w = 0).  Needed to build dependent-fetch
    coordinates relative to the current pixel."""


ExprLike = Union[Expr, float, int]


def vec4(x: float, y: float | None = None, z: float | None = None,
         w: float | None = None) -> Const:
    """Literal constructor; one argument splats to all lanes."""
    if y is None:
        return Const((x, x, x, x))
    if z is None or w is None:
        raise ShaderValidationError("vec4 takes 1 or 4 components")
    return Const((x, y, z, w))


def _coerce(value: ExprLike) -> Expr:
    if isinstance(value, Expr):
        return value
    # Coercing a host scalar into IR program text, not into texel data.
    return vec4(float(value))  # reprolint: disable=dtype-discipline


def add(a: ExprLike, b: ExprLike) -> Op:
    """Lane-wise addition."""
    return Op("add", (_coerce(a), _coerce(b)))


def sub(a: ExprLike, b: ExprLike) -> Op:
    """Lane-wise subtraction."""
    return Op("sub", (_coerce(a), _coerce(b)))


def mul(a: ExprLike, b: ExprLike) -> Op:
    """Lane-wise multiplication."""
    return Op("mul", (_coerce(a), _coerce(b)))


def div(a: ExprLike, b: ExprLike) -> Op:
    """Lane-wise division."""
    return Op("div", (_coerce(a), _coerce(b)))


def min_(a: ExprLike, b: ExprLike) -> Op:
    """Lane-wise minimum."""
    return Op("min", (_coerce(a), _coerce(b)))


def max_(a: ExprLike, b: ExprLike) -> Op:
    """Lane-wise maximum."""
    return Op("max", (_coerce(a), _coerce(b)))


def cmp_gt(a: ExprLike, b: ExprLike) -> Op:
    """1.0 where a > b else 0.0, per lane."""
    return Op("cmp_gt", (_coerce(a), _coerce(b)))


def cmp_ge(a: ExprLike, b: ExprLike) -> Op:
    """1.0 where a >= b else 0.0, per lane."""
    return Op("cmp_ge", (_coerce(a), _coerce(b)))


def log(a: ExprLike) -> Op:
    """Natural logarithm per lane (LG2 * ln2 on real hardware)."""
    return Op("log", (_coerce(a),))


def exp(a: ExprLike) -> Op:
    """Natural exponential per lane (EX2 * log2 e on real hardware)."""
    return Op("exp", (_coerce(a),))


def floor(a: ExprLike) -> Op:
    """Floor per lane (FLR)."""
    return Op("floor", (_coerce(a),))


def dot4(a: ExprLike, b: ExprLike) -> Dot:
    """DP4: four-lane dot product, broadcast to all lanes."""
    return Dot(_coerce(a), _coerce(b))


def select(cond: ExprLike, if_true: ExprLike, if_false: ExprLike) -> Select:
    """Per-lane conditional blend (the CMP instruction pattern)."""
    return Select(_coerce(cond), _coerce(if_true), _coerce(if_false))


Floor = floor  # exported alias matching the op-constructor naming


def walk(expr: Expr):
    """Yield every node of the tree exactly once (shared subtrees once),
    children before parents."""
    seen: set[int] = set()
    stack: list[tuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded:
            seen.add(id(node))
            yield node
            continue
        stack.append((node, True))
        for child in children(node):
            if id(child) not in seen:
                stack.append((child, False))


def substitute(expr: Expr, fetch_map=None, uniform_map=None) -> Expr:
    """Rewrite a tree: redirect fetches and rename uniforms.

    ``fetch_map`` maps a sampler name to either ``("rename", name)`` —
    the fetch keeps its offsets but reads another sampler — or
    ``("inline", body)`` — a *zero-offset* fetch is replaced by the
    given expression (the pass-fusion substitution: the producing
    kernel's body takes the place of reading its materialized output).
    Inlining a fetch that carries an offset is rejected: a shifted read
    of a computed image is not the image computed at shifted inputs
    once clamp-to-edge fires, so the compiler must materialize instead.
    ``uniform_map`` renames uniforms.  Untouched subtrees are returned
    as-is, preserving sharing (and therefore memoized evaluation).
    """
    fetch_map = fetch_map or {}
    uniform_map = uniform_map or {}
    cache: dict[int, Expr] = {}

    def rewrite(node: Expr) -> Expr:
        hit = cache.get(id(node))
        if hit is not None:
            return hit
        out = node
        if isinstance(node, TexFetch) and node.sampler in fetch_map:
            action, value = fetch_map[node.sampler]
            if action == "rename":
                out = TexFetch(value, node.dx, node.dy)
            elif action == "inline":
                if node.dx or node.dy:
                    raise ShaderValidationError(
                        f"cannot inline offset fetch of "
                        f"{node.sampler!r} (dx={node.dx}, dy={node.dy})")
                out = value
            else:  # pragma: no cover - defensive
                raise ShaderValidationError(
                    f"unknown fetch action {action!r}")
        elif isinstance(node, TexFetchDyn):
            coord = rewrite(node.coord)
            action, value = fetch_map.get(node.sampler, ("rename",
                                                         node.sampler))
            if action != "rename":
                raise ShaderValidationError(
                    f"cannot inline dependent fetch of {node.sampler!r}")
            if coord is not node.coord or value != node.sampler:
                out = TexFetchDyn(value, coord)
        elif isinstance(node, Uniform) and node.name in uniform_map:
            out = Uniform(uniform_map[node.name])
        elif isinstance(node, Op):
            args = tuple(rewrite(a) for a in node.args)
            if any(n is not o for n, o in zip(args, node.args)):
                out = Op(node.op, args)
        elif isinstance(node, Dot):
            a, b = rewrite(node.a), rewrite(node.b)
            if a is not node.a or b is not node.b:
                out = Dot(a, b)
        elif isinstance(node, Swizzle):
            src = rewrite(node.source)
            if src is not node.source:
                out = Swizzle(src, node.pattern)
        elif isinstance(node, Combine):
            parts = tuple(rewrite(p) for p in
                          (node.x, node.y, node.z, node.w))
            if any(n is not o for n, o in
                   zip(parts, (node.x, node.y, node.z, node.w))):
                out = Combine(*parts)
        elif isinstance(node, Select):
            c, t, f = (rewrite(node.cond), rewrite(node.if_true),
                       rewrite(node.if_false))
            if c is not node.cond or t is not node.if_true \
                    or f is not node.if_false:
                out = Select(c, t, f)
        cache[id(node)] = out
        return out

    return rewrite(expr)


def children(expr: Expr) -> tuple[Expr, ...]:
    """Immediate sub-expressions of a node."""
    if isinstance(expr, Op):
        return expr.args
    if isinstance(expr, Dot):
        return (expr.a, expr.b)
    if isinstance(expr, Swizzle):
        return (expr.source,)
    if isinstance(expr, Combine):
        return (expr.x, expr.y, expr.z, expr.w)
    if isinstance(expr, Select):
        return (expr.cond, expr.if_true, expr.if_false)
    if isinstance(expr, TexFetchDyn):
        return (expr.coord,)
    return ()
