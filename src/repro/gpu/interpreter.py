"""Vectorized execution of fragment shaders.

The interpreter evaluates a shader body over the whole render target at
once: every IR node becomes one NumPy operation on (H, W, 4) float32
arrays, so the *data* computed is bit-comparable to what a real float32
fragment pipeline produces while remaining fast enough to process
realistic scenes on one CPU core.

Clamp-to-edge fixed-offset fetches (the overwhelmingly common case in
the AMC kernels) are :func:`repro.core.shifts.shifted_copy` calls: a
strided interior copy with broadcast edge bands, the same texels a
clipped-index gather yields, several times faster.

Shared subtrees are evaluated once per launch via a *structurally*
keyed memo (IR nodes are immutable and hashable), mirroring the
register allocation a shader compiler performs.  Keying on structure
rather than object identity means equal-but-distinct subtrees — the
kind mechanical graph builders emit — also evaluate once.
"""

from __future__ import annotations

import numpy as np

from repro.core.shifts import shifted_copy
from repro.errors import ShaderError
from repro.gpu import shaderir as ir
from repro.gpu.shader import FragmentShader

_F32 = np.float32


def _fetch_static(texture: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Clamp-to-edge fetch at constant offset; zero offset is a no-copy
    view."""
    return shifted_copy(texture, dy, dx)


class ShaderContext:
    """Bindings for one launch: textures, uniforms and the target size."""

    def __init__(self, height: int, width: int,
                 textures: dict[str, np.ndarray],
                 uniforms: dict[str, np.ndarray]):
        self.height = height
        self.width = width
        self.textures = textures
        self.uniforms = uniforms
        self._fragcoord: np.ndarray | None = None

    def fragcoord(self) -> np.ndarray:
        """(H, W, 4) float32 with lane x = column index, y = row index."""
        if self._fragcoord is None:
            coords = np.zeros((self.height, self.width, 4), dtype=_F32)
            coords[:, :, 0] = np.arange(self.width, dtype=_F32)[None, :]
            coords[:, :, 1] = np.arange(self.height, dtype=_F32)[:, None]
            self._fragcoord = coords
        return self._fragcoord


def _eval(node: ir.Expr, ctx: ShaderContext,
          memo: dict[ir.Expr, np.ndarray]) -> np.ndarray:
    # Structural key: IR nodes are frozen dataclasses, so equal subtrees
    # — even distinct objects built twice by a mechanical graph builder —
    # share one evaluation per launch.
    cached = memo.get(node)
    if cached is not None:
        return cached
    out = _eval_uncached(node, ctx, memo)
    memo[node] = out
    return out


def _eval_uncached(node: ir.Expr, ctx: ShaderContext,
                   memo: dict[ir.Expr, np.ndarray]) -> np.ndarray:
    if isinstance(node, ir.Const):
        return np.array(node.values, dtype=_F32)  # broadcasts over (H, W, 4)
    if isinstance(node, ir.Uniform):
        return ctx.uniforms[node.name]
    if isinstance(node, ir.FragCoord):
        return ctx.fragcoord()
    if isinstance(node, ir.TexFetch):
        return _fetch_static(ctx.textures[node.sampler], node.dx, node.dy)
    if isinstance(node, ir.TexFetchDyn):
        coord = _eval(node.coord, ctx, memo)
        tex = ctx.textures[node.sampler]
        h, w = tex.shape[:2]
        coord = np.broadcast_to(coord, (ctx.height, ctx.width, 4))
        cols = np.clip(np.rint(coord[:, :, 0]).astype(np.intp), 0, w - 1)
        rows = np.clip(np.rint(coord[:, :, 1]).astype(np.intp), 0, h - 1)
        return tex[rows, cols]
    if isinstance(node, ir.Op):
        a = _eval(node.args[0], ctx, memo)
        if node.op in ir.UNARY_OPS:
            if node.op == "log":
                # fp30 LG2 returns -inf for 0 and NaN for negatives; the
                # library's kernels always clamp first, but the simulator
                # must not crash on raw hardware semantics either.
                with np.errstate(divide="ignore", invalid="ignore"):
                    return np.log(a)
            if node.op == "exp":
                return np.exp(a)
            if node.op == "neg":
                return -a
            if node.op == "abs":
                return np.abs(a)
            if node.op == "floor":
                return np.floor(a)
            if node.op == "rcp":
                with np.errstate(divide="ignore", invalid="ignore"):
                    return (np.float32(1.0) / a).astype(_F32, copy=False)
            if node.op == "sqrt":
                with np.errstate(invalid="ignore"):
                    return np.sqrt(a)
            raise ShaderError(f"unhandled unary op {node.op!r}")
        b = _eval(node.args[1], ctx, memo)
        if node.op == "add":
            return a + b
        if node.op == "sub":
            return a - b
        if node.op == "mul":
            return a * b
        if node.op == "div":
            with np.errstate(divide="ignore", invalid="ignore"):
                return a / b
        if node.op == "min":
            return np.minimum(a, b)
        if node.op == "max":
            return np.maximum(a, b)
        if node.op == "cmp_gt":
            return (a > b).astype(_F32)
        if node.op == "cmp_ge":
            return (a >= b).astype(_F32)
        raise ShaderError(f"unhandled binary op {node.op!r}")
    if isinstance(node, ir.Dot):
        a = _eval(node.a, ctx, memo)
        b = _eval(node.b, ctx, memo)
        prod = a * b
        summed = prod.sum(axis=-1, dtype=_F32, keepdims=True)
        return np.broadcast_to(summed, prod.shape if prod.ndim == 3
                               else (4,)).astype(_F32, copy=False)
    if isinstance(node, ir.Swizzle):
        src = _eval(node.source, ctx, memo)
        idx = list(node.lane_indices())
        return src[..., idx]
    if isinstance(node, ir.Combine):
        parts = [_eval(p, ctx, memo) for p in
                 (node.x, node.y, node.z, node.w)]
        shape = (ctx.height, ctx.width, 4)
        lanes = [np.broadcast_to(p, shape)[..., 0] for p in parts]
        return np.stack(lanes, axis=-1).astype(_F32, copy=False)
    if isinstance(node, ir.Select):
        cond = _eval(node.cond, ctx, memo)
        t = _eval(node.if_true, ctx, memo)
        f = _eval(node.if_false, ctx, memo)
        return np.where(cond != 0, t, f).astype(_F32, copy=False)
    raise ShaderError(f"unknown IR node type {type(node).__name__}")


def execute(shader: FragmentShader, height: int, width: int,
            textures: dict[str, np.ndarray],
            uniforms: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """Run ``shader`` over an ``height x width`` render target.

    Parameters
    ----------
    shader:
        A validated program.
    height, width:
        Render-target extents.
    textures:
        Sampler name -> (H', W', 4) float32 array.  Samplers with the
        target's extents are fetched with offsets; dependent fetches may
        target any extent.
    uniforms:
        Uniform name -> length-4 float vector.

    Returns
    -------
    numpy.ndarray
        The (height, width, 4) float32 render-target contents.

    Raises
    ------
    ShaderError
        If a binding is missing or a texture has the wrong shape for
        offset addressing.
    """
    result = execute_lazy(shader, height, width, textures, uniforms)
    out = np.empty((height, width, 4), dtype=_F32)
    out[...] = result  # broadcasts constants / uniforms to full extent
    return out


def execute_lazy(shader: FragmentShader, height: int, width: int,
                 textures: dict[str, np.ndarray],
                 uniforms: dict[str, np.ndarray] | None = None
                 ) -> np.ndarray:
    """Like :func:`execute` but returns the raw evaluation result.

    The values are the same float32 texels; the array may be smaller
    than the full target (a constant or uniform result broadcasts) and
    may *alias an input texture* (a zero-offset copy kernel).  Callers
    own the final materialization — :meth:`VirtualGPU.launch
    <repro.gpu.device.VirtualGPU.launch>` broadcasts the result into
    the target texture directly, eliding the interpreter's scratch
    temporary.
    """
    tex_arrays = _coerce_textures(shader.name, shader.samplers, textures)
    uni_arrays = _coerce_uniforms(shader.name, shader.uniforms, uniforms)
    ctx = ShaderContext(height, width, tex_arrays, uni_arrays)
    memo: dict[ir.Expr, np.ndarray] = {}
    return _eval(shader.body, ctx, memo)


def _coerce_textures(kernel: str, samplers, textures) -> dict[str, np.ndarray]:
    """Check and float32-coerce the texture bindings of one launch."""
    missing = [s for s in samplers if s not in textures]
    if missing:
        raise ShaderError(
            f"launch of {kernel!r} missing texture bindings {missing}")
    tex_arrays: dict[str, np.ndarray] = {}
    for name in samplers:
        arr = np.asarray(textures[name], dtype=_F32)
        if arr.ndim != 3 or arr.shape[2] != 4:
            raise ShaderError(
                f"texture {name!r} must be (H, W, 4), got {arr.shape}")
        tex_arrays[name] = arr
    return tex_arrays


def _coerce_uniforms(kernel: str, declared, uniforms) -> dict[str, np.ndarray]:
    """Check and 4-vector-coerce the uniform bindings of one launch."""
    missing = [u for u in declared
               if uniforms is None or u not in uniforms]
    if missing:
        raise ShaderError(
            f"launch of {kernel!r} missing uniforms {missing}")
    uni_arrays: dict[str, np.ndarray] = {}
    if uniforms:
        for name, value in uniforms.items():
            v = np.asarray(value, dtype=_F32).reshape(-1)
            if v.size == 1:
                v = np.repeat(v, 4)
            if v.size != 4:
                raise ShaderError(
                    f"uniform {name!r} must have 1 or 4 components, "
                    f"got {v.size}")
            uni_arrays[name] = v
    return uni_arrays


def execute_fused_lazy(part_shaders, part_names, height: int, width: int,
                       textures: dict[str, np.ndarray],
                       uniforms: dict[str, np.ndarray] | None = None
                       ) -> np.ndarray:
    """Evaluate a fused kernel's parts under one shared context.

    ``part_shaders`` / ``part_names`` come from a
    :class:`~repro.stream.kernel.FusedKernel`: each part is evaluated
    in order, non-final parts materialized to full extent and
    registered as in-launch textures under their stream name (so later
    parts fetch them at fixed offsets with clamp-to-edge semantics
    identical to a real intermediate texture), and the final part's raw
    result returned as in :func:`execute_lazy`.

    The single :class:`ShaderContext` and structurally-keyed memo are
    shared across *all* parts — a fetch or uniform-only subexpression
    appearing in several members evaluates once per fused launch
    instead of once per original pass (the hoisting the fusion compiler
    promises).
    """
    label = part_names[-1] if part_names else "fused"
    external = [s for shader in part_shaders for s in shader.samplers
                if s not in part_names]
    declared = [u for shader in part_shaders for u in shader.uniforms]
    tex_arrays = _coerce_textures(label, dict.fromkeys(external), textures)
    uni_arrays = _coerce_uniforms(label, dict.fromkeys(declared), uniforms)

    ctx = ShaderContext(height, width, tex_arrays, uni_arrays)
    memo: dict[ir.Expr, np.ndarray] = {}
    for shader, name in zip(part_shaders[:-1], part_names[:-1]):
        part = np.empty((height, width, 4), dtype=_F32)
        part[...] = _eval(shader.body, ctx, memo)
        ctx.textures[name] = part
    return _eval(part_shaders[-1].body, ctx, memo)


def execute_fused(part_shaders, part_names, height: int, width: int,
                  textures: dict[str, np.ndarray],
                  uniforms: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """Like :func:`execute_fused_lazy`, materialized to (H, W, 4).

    The host-side (CPU executor) entry point; the device broadcasts the
    lazy result straight into its render target instead.
    """
    result = execute_fused_lazy(part_shaders, part_names, height, width,
                                textures, uniforms)
    out = np.empty((height, width, 4), dtype=_F32)
    out[...] = result
    return out
