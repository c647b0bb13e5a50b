"""Tests for the shader IR node types and constructors."""

import pytest

from repro.errors import ShaderValidationError
from repro.gpu import shaderir as ir


class TestConstructors:
    def test_vec4_splat(self):
        assert ir.vec4(2.0).values == (2.0, 2.0, 2.0, 2.0)

    def test_vec4_full(self):
        assert ir.vec4(1, 2, 3, 4).values == (1.0, 2.0, 3.0, 4.0)

    def test_vec4_partial_rejected(self):
        with pytest.raises(ShaderValidationError):
            ir.vec4(1.0, 2.0)

    def test_const_wrong_arity(self):
        with pytest.raises(ShaderValidationError):
            ir.Const((1.0, 2.0))

    def test_helpers_coerce_scalars(self):
        node = ir.add(ir.TexFetch("t"), 3.0)
        assert isinstance(node.args[1], ir.Const)
        assert node.args[1].values == (3.0, 3.0, 3.0, 3.0)

    def test_binary_arity_checked(self):
        with pytest.raises(ShaderValidationError, match="2 operands"):
            ir.Op("add", (ir.vec4(1.0),))

    def test_unary_arity_checked(self):
        with pytest.raises(ShaderValidationError, match="1 operand"):
            ir.Op("log", (ir.vec4(1.0), ir.vec4(2.0)))

    def test_unknown_opcode(self):
        with pytest.raises(ShaderValidationError, match="unknown opcode"):
            ir.Op("fma", (ir.vec4(1.0), ir.vec4(1.0)))

    def test_non_expr_operand(self):
        with pytest.raises(ShaderValidationError, match="not an Expr"):
            ir.Op("add", (ir.vec4(1.0), 3.0))  # type: ignore

    def test_texfetch_offsets_coerced_int(self):
        node = ir.TexFetch("t", 1.0, -2.0)  # type: ignore
        assert node.dx == 1 and node.dy == -2


class TestSwizzle:
    def test_valid_pattern(self):
        assert ir.Swizzle(ir.vec4(0.0), "xyzw").lane_indices() == (0, 1, 2, 3)
        assert ir.Swizzle(ir.vec4(0.0), "wwww").lane_indices() == (3, 3, 3, 3)

    @pytest.mark.parametrize("pattern", ["xyz", "xyzwv", "abcd", ""])
    def test_invalid_pattern(self, pattern):
        with pytest.raises(ShaderValidationError):
            ir.Swizzle(ir.vec4(0.0), pattern)


class TestWalk:
    def test_yields_children_before_parents(self):
        a = ir.TexFetch("t")
        b = ir.log(a)
        c = ir.add(b, 1.0)
        order = list(ir.walk(c))
        assert order.index(a) < order.index(b) < order.index(c)

    def test_shared_subtree_visited_once(self):
        shared = ir.log(ir.TexFetch("t"))
        root = ir.add(shared, shared)
        visits = [n for n in ir.walk(root) if n is shared]
        assert len(visits) == 1

    def test_walk_covers_all_node_kinds(self):
        tree = ir.Select(
            ir.cmp_gt(ir.TexFetch("a"), 0.0),
            ir.Combine(ir.vec4(1.0), ir.Uniform("u"),
                       ir.Swizzle(ir.FragCoord(), "xxxx"),
                       ir.dot4(ir.TexFetch("a"), ir.vec4(1.0))),
            ir.TexFetchDyn("b", ir.FragCoord()))
        kinds = {type(n).__name__ for n in ir.walk(tree)}
        assert {"Select", "Combine", "Swizzle", "Dot", "TexFetch",
                "TexFetchDyn", "FragCoord", "Uniform", "Const",
                "Op"} <= kinds

    def test_children_of_leaves_empty(self):
        assert ir.children(ir.vec4(1.0)) == ()
        assert ir.children(ir.Uniform("u")) == ()
        assert ir.children(ir.TexFetch("t")) == ()


class TestStructuralHash:
    def _tree(self):
        leaf = ir.dot4(ir.TexFetch("a", 1, 0), ir.Uniform("u"))
        return ir.select(ir.cmp_gt(leaf, 0.0),
                         ir.Combine(leaf, leaf, ir.FragCoord(), leaf),
                         ir.Swizzle(ir.TexFetchDyn("b", leaf), "xxxx"))

    def test_equal_trees_hash_and_compare_equal(self):
        a, b = self._tree(), self._tree()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != ir.add(a, 1.0)

    def test_hash_computed_once(self):
        """Hashing a node caches the hash of every node below it, so a
        memo lookup never re-walks a subtree."""
        node = self._tree()
        first = hash(node)
        assert all("_hash" in n.__dict__ for n in ir.walk(node))
        assert hash(node) == first

    def test_pickle_drops_the_cached_hash(self):
        import pickle

        node = self._tree()
        hash(node)
        clone = pickle.loads(pickle.dumps(node))
        assert "_hash" not in clone.__dict__
        assert clone == node and hash(clone) == hash(node)
