"""Cg source emission from shader IR.

The paper's kernels were "hand-coded using Cg [5], and all Cg fragment
programs were compiled using the profile fp30".  The simulator executes
an IR instead — this module closes the loop by *emitting* the equivalent
Cg fragment program for any validated shader, so every kernel in the
pipeline can be inspected in the language the paper's implementation was
written in (and, on a machine with a real driver, compiled with
``cgc -profile fp30``).

Emission rules:

* every IR node that costs an instruction becomes one assignment to a
  fresh ``float4`` register, in dependency order (shared subtrees emit
  once — the same register-allocation convention the validator and the
  cost model use);
* static texture fetches become ``tex2D(sampler, uv + float2(dx,dy)*texel)``
  against the declared texel-size uniform;
* dependent fetches compute their coordinate in full and fetch through it;
* comparisons and ``Select`` lower to the fp30 idiom (``(a > b) ? 1 : 0``
  vectorized via ``step``/``lerp``-free ternaries Cg accepts on float4).
"""

from __future__ import annotations

from repro.errors import ShaderError
from repro.gpu import shaderir as ir
from repro.gpu.shader import FragmentShader

_BINARY_INFIX = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
_BINARY_FUNC = {"min": "min", "max": "max"}
_UNARY_FUNC = {"log": "log", "exp": "exp", "abs": "abs", "floor": "floor",
               "sqrt": "sqrt"}


class _Emitter:
    def __init__(self, shader: FragmentShader):
        self.shader = shader
        self.lines: list[str] = []
        self.names: dict[int, str] = {}
        self.counter = 0

    def _fresh(self, node: ir.Expr) -> str:
        name = f"r{self.counter}"
        self.counter += 1
        self.names[id(node)] = name
        return name

    def ref(self, node: ir.Expr) -> str:
        """Expression referencing an already-emitted node (leaves inline)."""
        if isinstance(node, ir.Const):
            vals = ", ".join(f"{v:g}" for v in node.values)
            return f"float4({vals})"
        if isinstance(node, ir.Uniform):
            return node.name
        if isinstance(node, ir.FragCoord):
            # uv in [0,1] -> integer texel coordinates
            return "float4(uv / texel - 0.5, 0.0, 0.0)"
        return self.names[id(node)]

    def emit(self, node: ir.Expr) -> None:
        if id(node) in self.names or isinstance(
                node, (ir.Const, ir.Uniform, ir.FragCoord)):
            return
        if isinstance(node, ir.TexFetch):
            name = self._fresh(node)
            if node.dx == 0 and node.dy == 0:
                coord = "uv"
            else:
                coord = f"uv + float2({node.dx}, {node.dy}) * texel"
            self.lines.append(
                f"    float4 {name} = tex2D({node.sampler}, {coord});")
        elif isinstance(node, ir.TexFetchDyn):
            name = self._fresh(node)
            coord = self.ref(node.coord)
            self.lines.append(
                f"    float4 {name} = tex2D({node.sampler}, "
                f"(({coord}).xy + 0.5) * texel);")
        elif isinstance(node, ir.Op):
            name = self._fresh(node)
            args = [self.ref(a) for a in node.args]
            if node.op in _BINARY_INFIX:
                expr = f"{args[0]} {_BINARY_INFIX[node.op]} {args[1]}"
            elif node.op in _BINARY_FUNC:
                expr = f"{_BINARY_FUNC[node.op]}({args[0]}, {args[1]})"
            elif node.op == "cmp_gt":
                expr = (f"float4({args[0]}.x > {args[1]}.x, "
                        f"{args[0]}.y > {args[1]}.y, "
                        f"{args[0]}.z > {args[1]}.z, "
                        f"{args[0]}.w > {args[1]}.w)")
            elif node.op == "cmp_ge":
                expr = f"step({args[1]}, {args[0]})"
            elif node.op in _UNARY_FUNC:
                expr = f"{_UNARY_FUNC[node.op]}({args[0]})"
            elif node.op == "neg":
                expr = f"-{args[0]}"
            elif node.op == "rcp":
                expr = f"1.0 / {args[0]}"
            else:  # pragma: no cover - validator forbids unknown ops
                raise ShaderError(f"cannot emit op {node.op!r}")
            self.lines.append(f"    float4 {name} = {expr};")
        elif isinstance(node, ir.Dot):
            name = self._fresh(node)
            self.lines.append(
                f"    float4 {name} = dot({self.ref(node.a)}, "
                f"{self.ref(node.b)}).xxxx;")
        elif isinstance(node, ir.Swizzle):
            name = self._fresh(node)
            self.lines.append(
                f"    float4 {name} = {self.ref(node.source)}."
                f"{node.pattern};")
        elif isinstance(node, ir.Combine):
            name = self._fresh(node)
            parts = ", ".join(f"{self.ref(p)}.x"
                              for p in (node.x, node.y, node.z, node.w))
            self.lines.append(f"    float4 {name} = float4({parts});")
        elif isinstance(node, ir.Select):
            name = self._fresh(node)
            cond = self.ref(node.cond)
            self.lines.append(
                f"    float4 {name} = lerp({self.ref(node.if_false)}, "
                f"{self.ref(node.if_true)}, {cond});")
        else:  # pragma: no cover - walk() covers every node type
            raise ShaderError(f"cannot emit node {type(node).__name__}")


def emit_cg(shader: FragmentShader) -> str:
    """Render a validated shader as an fp30 Cg fragment program.

    The generated program takes the interpolated texture coordinate
    ``uv``, one ``sampler2D`` per declared sampler, one ``float4`` per
    declared uniform, plus the implicit ``texel`` uniform (1/width,
    1/height) used for offset addressing.
    """
    emitter = _Emitter(shader)
    for node in ir.walk(shader.body):
        emitter.emit(node)

    params = ["float2 uv : TEXCOORD0"]
    params += [f"uniform sampler2D {name}" for name in shader.samplers]
    params += [f"uniform float4 {name}" for name in shader.uniforms]
    params += ["uniform float2 texel"]
    header = ",\n    ".join(params)
    body = "\n".join(emitter.lines) if emitter.lines else ""
    result = emitter.ref(shader.body)
    return (f"// kernel: {shader.name} (emitted from repro IR, "
            f"profile fp30)\n"
            f"float4 {shader.name.replace('-', '_')}(\n"
            f"    {header}) : COLOR\n"
            f"{{\n"
            f"{body}\n"
            f"    return {result};\n"
            f"}}\n")


def emit_pipeline_kernels(radius: int = 1, fuse_groups: int = 6,
                          bands: int = 224) -> dict[str, str]:
    """Emit Cg source for every kernel of the AMC stream pipeline.

    Convenience for inspection/export: the paper's Fig. 4 shader set,
    the one :func:`repro.core.amc_gpu.gpu_morphological_stage` launches
    with ``schedule="paper"``.
    """
    from repro.core.amc_gpu import _batches, _kernels
    from repro.gpu.texture import band_group_count
    from repro.spectral.normalize import SpectralEpsilon

    groups = band_group_count(bands)
    widths = tuple(sorted({w for _, w in _batches(groups, fuse_groups)}))
    shaders = _kernels(radius, SpectralEpsilon.get(), widths, "paper")
    return {name: emit_cg(shader) for name, shader in shaders.items()}
