"""Tests for the loop-nest IR, code generator and loop distribution."""

import pytest

from repro.compiler.codegen import CodegenError, generate_assembly
from repro.compiler.ir import (
    Assign,
    BinOp,
    Call,
    Const,
    IVar,
    Kernel,
    Loop,
    Ref,
    expr_depth,
    expr_refs,
    idx,
)
from repro.compiler.loop_distribution import (
    distribute_kernel,
    distribute_loop,
    ordered_components,
)
from repro.compiler.passes import PassPipeline, build_program
from repro.isa.interpreter import run_program
from repro.isa.program import DATA_BASE


def axpy_kernel(n=16):
    kernel = Kernel("axpy")
    kernel.array("x", n, init=[float(i) for i in range(n)])
    kernel.array("y", n, init=[1.0] * n)
    alpha = kernel.const("alpha", 2.0)
    kernel.loop("i", 0, n, [
        Assign(Ref("y", idx("i")),
               BinOp("+", BinOp("*", alpha, Ref("x", idx("i"))),
                     Ref("y", idx("i")))),
    ])
    return kernel


class TestIr:
    def test_idx_builder(self):
        index = idx(("i", 4), "j", offset=2)
        assert index.terms == (("i", 4), ("j", 1))
        assert index.offset == 2

    def test_idx_trailing_int_is_offset(self):
        assert idx("i", 3).offset == 3
        assert idx("i", 3).terms == (("i", 1),)

    def test_index_shifted(self):
        assert idx("i", 1).shifted(2).offset == 3

    def test_expr_refs_in_order(self):
        expr = BinOp("+", Ref("a", idx("i")),
                     BinOp("*", Ref("b", idx("i")), Ref("c", idx("i"))))
        assert [r.array for r in expr_refs(expr)] == ["a", "b", "c"]

    def test_expr_depth(self):
        assert expr_depth(Const("c")) == 1
        left_deep = BinOp("+", BinOp("+", Const("c"), Const("c")),
                          Const("c"))
        assert expr_depth(left_deep) == 2
        right_deep = BinOp("+", Const("c"),
                           BinOp("+", Const("c"), Const("c")))
        assert expr_depth(right_deep) == 3

    def test_assign_arrays(self):
        stmt = Assign(Ref("y", idx("i")),
                      BinOp("+", Ref("x", idx("i")), Ref("y", idx("i"))))
        assert stmt.array_written() == "y"
        assert set(stmt.arrays_read()) == {"x", "y"}

    def test_duplicate_declarations_rejected(self):
        kernel = Kernel("k")
        kernel.array("a", 4)
        with pytest.raises(ValueError):
            kernel.array("a", 4)
        kernel.const("c", 1.0)
        with pytest.raises(ValueError):
            kernel.const("c", 2.0)

    def test_bad_operator_rejected(self):
        with pytest.raises(ValueError):
            BinOp("%", Const("c"), Const("c"))

    def test_all_loops_walks_nesting_and_procedures(self):
        kernel = Kernel("k")
        kernel.array("a", 4)
        inner = Loop("j", 0, 2, [])
        kernel.loop("i", 0, 2, [inner])
        kernel.procedure("p", [Loop("k", 0, 2, [])])
        assert len(kernel.all_loops()) == 3


class TestCodegen:
    def test_axpy_computes_correctly(self):
        program = build_program(axpy_kernel())
        machine = run_program(program)
        # y[i] = 2*i + 1
        y_base = DATA_BASE + 16 * 8
        for i in range(16):
            assert machine.memory.load_double(y_base + 8 * i) == 2.0 * i + 1

    def test_loop_shape(self):
        program = build_program(axpy_kernel())
        sizes = program.static_loop_sizes()
        assert len(sizes) == 1
        assert 10 <= sizes[0] <= 20

    def test_ivar_conversion(self):
        kernel = Kernel("iv")
        kernel.array("out", 8)
        kernel.loop("i", 0, 8, [
            Assign(Ref("out", idx("i")), IVar("i")),
        ])
        machine = run_program(build_program(kernel))
        for i in range(8):
            assert machine.memory.load_double(DATA_BASE + 8 * i) == float(i)

    def test_2d_index_with_power_of_two_stride(self):
        kernel = Kernel("td")
        kernel.array("m", 16 * 4)
        kernel.const("one", 1.0)
        inner = Loop("j", 0, 4, [
            Assign(Ref("m", idx(("i", 4), "j")), Const("one")),
        ])
        kernel.loop("i", 0, 16, [inner])
        machine = run_program(build_program(kernel))
        for flat in range(64):
            assert machine.memory.load_double(DATA_BASE + 8 * flat) == 1.0

    def test_non_power_of_two_stride_uses_mult(self):
        kernel = Kernel("np")
        kernel.array("m", 7 * 3)
        kernel.const("one", 1.0)
        inner = Loop("j", 0, 3, [
            Assign(Ref("m", idx(("i", 3), "j")), Const("one")),
        ])
        kernel.loop("i", 0, 7, [inner])
        assembly = generate_assembly(kernel)
        assert "mult" in assembly
        machine = run_program(build_program(kernel))
        assert machine.memory.load_double(DATA_BASE + 8 * 20) == 1.0

    def test_procedure_emission_and_call(self):
        kernel = Kernel("pc")
        kernel.array("a", 4, init=[5.0] * 4)
        kernel.const("two", 2.0)
        kernel.procedure("scale0", [
            Assign(Ref("a", idx()), BinOp("*", Const("two"),
                                          Ref("a", idx()))),
        ])
        kernel.loop("i", 0, 3, [Call("scale0")])
        machine = run_program(build_program(kernel))
        assert machine.memory.load_double(DATA_BASE) == 40.0     # 5*2^3

    def test_negative_offset_reference(self):
        kernel = Kernel("off")
        kernel.array("a", 8, init=[float(i) for i in range(8)])
        kernel.array("b", 8)
        kernel.loop("i", 1, 8, [
            Assign(Ref("b", idx("i")), Ref("a", idx("i", -1))),
        ])
        machine = run_program(build_program(kernel))
        b_base = DATA_BASE + 8 * 8
        assert machine.memory.load_double(b_base + 8 * 3) == 2.0

    def test_too_many_loop_vars_rejected(self):
        kernel = Kernel("deep")
        kernel.array("a", 2)
        kernel.const("one", 1.0)
        body = [Assign(Ref("a", idx()), Const("one"))]
        for var in ("e", "d", "c", "b", "a5"):
            body = [Loop(var, 0, 2, body)]
        kernel.body = body
        with pytest.raises(CodegenError):
            generate_assembly(kernel)

    def test_too_deep_expression_rejected(self):
        kernel = Kernel("deep_expr")
        kernel.array("a", 2)
        kernel.const("c", 1.0)
        expr = Const("c")
        for _ in range(10):
            expr = BinOp("+", Const("c"), expr)     # right-deep: depth 11
        kernel.loop("i", 0, 2, [Assign(Ref("a", idx()), expr)])
        with pytest.raises(CodegenError):
            generate_assembly(kernel)

    def test_unknown_array_rejected(self):
        kernel = Kernel("ua")
        kernel.array("a", 2)
        kernel.loop("i", 0, 2, [
            Assign(Ref("missing", idx("i")), Ref("a", idx("i"))),
        ])
        with pytest.raises(CodegenError):
            generate_assembly(kernel)

    def test_unknown_call_rejected(self):
        kernel = Kernel("uc")
        kernel.array("a", 2)
        kernel.loop("i", 0, 2, [Call("ghost")])
        with pytest.raises(CodegenError):
            generate_assembly(kernel)


def _three_independent_statements():
    body = [
        Assign(Ref("d0", idx("i")), Ref("s", idx("i"))),
        Assign(Ref("d1", idx("i")), Ref("s", idx("i"))),
        Assign(Ref("d2", idx("i")), Ref("s", idx("i"))),
    ]
    return Loop("i", 0, 8, body)


class TestLoopDistribution:
    def test_independent_statements_split(self):
        loops = distribute_loop(_three_independent_statements())
        assert len(loops) == 3
        assert all(len(l.body) == 1 for l in loops)

    def test_forward_flow_dependence_preserves_order(self):
        loop = Loop("i", 0, 8, [
            Assign(Ref("t", idx("i")), Ref("s", idx("i"))),
            Assign(Ref("d", idx("i")), Ref("t", idx("i"))),
        ])
        loops = distribute_loop(loop)
        assert len(loops) == 2
        assert loops[0].body[0].array_written() == "t"
        assert loops[1].body[0].array_written() == "d"

    def test_loop_carried_recurrence_stays_together(self):
        # S2 writes b[i+1], which S1 reads at the *next* iteration: a true
        # loop-carried recurrence -- one SCC, no distribution
        loop = Loop("i", 0, 8, [
            Assign(Ref("a", idx("i")), Ref("b", idx("i"))),
            Assign(Ref("b", idx("i", 1)), Ref("a", idx("i"))),
        ])
        loops = distribute_loop(loop)
        assert len(loops) == 1
        assert len(loops[0].body) == 2

    def test_shifted_read_after_write_stays_together(self):
        # the fuzzer-found case: S1 writes a1[i], S2 reads a1[i+1] --
        # separating them would let S2 see values from future iterations
        loop = Loop("i", 0, 8, [
            Assign(Ref("a", idx("i")), Ref("s", idx("i"))),
            Assign(Ref("d", idx("i")), Ref("a", idx("i", 1))),
        ])
        loops = distribute_loop(loop)
        assert len(loops) == 1

    def test_same_index_mutual_reference_is_separable(self):
        # a[i]=b[i]; b[i]=a[i]: both dependences are loop-independent at
        # identical indices, so running the first loop to completion first
        # preserves them -- distribution is legal here
        loop = Loop("i", 0, 8, [
            Assign(Ref("a", idx("i")), Ref("b", idx("i"))),
            Assign(Ref("b", idx("i")), Ref("a", idx("i"))),
        ])
        loops = distribute_loop(loop)
        assert len(loops) == 2

    def test_component_order_breaks_ties_by_program_order(self):
        # edges 0->4, 1->2, 2->3: any topological order is legal; the
        # pass pins the one that emits the lowest ready statement first
        assert ordered_components([[4], [2], [3], [], []]) == [
            [0], [1], [2], [3], [4]]
        loop = Loop("i", 0, 8, [
            Assign(Ref("d0", idx("i")), Ref("s", idx("i"))),
            Assign(Ref("t1", idx("i")), Ref("s", idx("i"))),
            Assign(Ref("t2", idx("i")), Ref("t1", idx("i"))),
            Assign(Ref("t3", idx("i")), Ref("t2", idx("i"))),
            Assign(Ref("d4", idx("i")), Ref("d0", idx("i"))),
        ])
        written = [l.body[0].array_written() for l in distribute_loop(loop)]
        assert written == ["d0", "t1", "t2", "t3", "d4"]

    def test_components_group_cycles_and_respect_edges(self):
        # 0<->2 form one component that must follow 1 (1->0) and precede 3
        order = ordered_components([[2, 3], [0], [0], []])
        assert order == [[1], [0, 2], [3]]

    def test_call_blocks_distribution(self):
        loop = Loop("i", 0, 8, [
            Assign(Ref("d0", idx("i")), Ref("s", idx("i"))),
            Call("p"),
            Assign(Ref("d1", idx("i")), Ref("s", idx("i"))),
        ])
        assert distribute_loop(loop) == [loop]

    def test_single_statement_unchanged(self):
        loop = Loop("i", 0, 8, [
            Assign(Ref("d0", idx("i")), Ref("s", idx("i")))])
        assert distribute_loop(loop) == [loop]

    def test_kernel_distribution_recurses_into_outer_loops(self):
        kernel = Kernel("nest")
        for name in ("s", "d0", "d1", "d2"):
            kernel.array(name, 16)
        kernel.loop("t", 0, 2, [_three_independent_statements()])
        optimized = distribute_kernel(kernel)
        outer = optimized.body[0]
        assert isinstance(outer, Loop)
        assert len(outer.body) == 3

    def test_distribution_preserves_semantics(self):
        kernel = Kernel("sem")
        kernel.array("s", 16, init=[float(i) for i in range(16)])
        for name in ("d0", "d1", "d2"):
            kernel.array(name, 16)
        kernel.const("c", 3.0)
        kernel.loop("i", 0, 16, [
            Assign(Ref("d0", idx("i")), BinOp("*", Const("c"),
                                              Ref("s", idx("i")))),
            Assign(Ref("d1", idx("i")), BinOp("+", Ref("s", idx("i")),
                                              Ref("s", idx("i")))),
            Assign(Ref("d2", idx("i")), IVar("i")),
        ])
        original = run_program(build_program(kernel, optimize=False))
        optimized = run_program(build_program(kernel, optimize=True))
        for page_addr, page in original.memory._pages.items():
            assert optimized.memory.read_bytes(page_addr << 12,
                                               len(page)) == bytes(page)

    def test_distribution_increases_loop_count(self):
        kernel = Kernel("lc")
        kernel.array("s", 8)
        for name in ("d0", "d1"):
            kernel.array(name, 8)
        kernel.loop("i", 0, 8, [
            Assign(Ref("d0", idx("i")), Ref("s", idx("i"))),
            Assign(Ref("d1", idx("i")), Ref("s", idx("i"))),
        ])
        original = build_program(kernel, optimize=False)
        optimized = build_program(kernel, optimize=True)
        assert len(optimized.static_loop_sizes()) > \
            len(original.static_loop_sizes())
        assert max(optimized.static_loop_sizes()) < \
            max(original.static_loop_sizes())

    def test_pass_pipeline_composition(self):
        pipeline = PassPipeline().add(distribute_kernel)
        kernel = Kernel("pp")
        kernel.array("s", 8)
        kernel.array("d0", 8)
        kernel.array("d1", 8)
        kernel.loop("i", 0, 8, [
            Assign(Ref("d0", idx("i")), Ref("s", idx("i"))),
            Assign(Ref("d1", idx("i")), Ref("s", idx("i"))),
        ])
        once = pipeline.run(kernel)
        twice = distribute_kernel(once)
        # idempotent: already-distributed loops stay single-statement
        assert len(twice.body) == len(once.body)
