"""Loop distribution (Kennedy/McKinley style).

The paper's Section 4 uses loop distribution to shrink loop bodies so they
fit a given issue-queue size.  The pass splits an innermost loop's body
into the strongly-connected components of its statement dependence graph,
emitting one loop per component in topological order (ties broken by
program order):

* statements that participate in a dependence *cycle* (e.g. a recurrence
  through the same array) must stay in one loop,
* everything else can be separated, and the component order preserves all
  forward dependences.

The dependence test is index-aware but still conservative:

* two statements touching a common array (with at least one write) where
  every reference to that array uses the **identical index expression**
  have a purely *loop-independent* dependence -- running the earlier
  statement's whole loop first preserves it, so only a forward edge is
  added and distribution may separate them;
* if the indices **differ** (e.g. one statement writes ``a[i]`` and the
  other reads ``a[i+1]``), the dependence may be loop-carried in either
  direction (a future iteration's write feeding a past read, or vice
  versa), so both edges are added and the pair stays in one loop.

This rule was hardened by property-based fuzzing
(``tests/test_compiler_fuzz.py``), which found that the earlier
array-granular version illegally separated an earlier writer from a later
reader at a shifted index.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Set

from repro.compiler.ir import (
    Assign,
    Call,
    IndexExpr,
    Kernel,
    Loop,
    Stmt,
    expr_refs,
)


def _array_indices(stmt: Assign) -> Dict[str, Set[IndexExpr]]:
    """Every index expression a statement uses, per array (reads+write)."""
    indices: Dict[str, Set[IndexExpr]] = {}
    indices.setdefault(stmt.target.array, set()).add(stmt.target.index)
    for ref in expr_refs(stmt.expr):
        indices.setdefault(ref.array, set()).add(ref.index)
    return indices


def _interference(first: Assign, second: Assign):
    """Classify the dependence between two statements.

    Returns ``None`` (independent), ``"loop_independent"`` (separable:
    every shared access uses one identical index) or ``"cyclic"``
    (potentially loop-carried either way: keep together).
    """
    first_indices = _array_indices(first)
    second_indices = _array_indices(second)
    writes = {first.array_written(), second.array_written()}
    shared = [array for array in first_indices
              if array in second_indices and array in writes]
    if not shared:
        return None
    for array in shared:
        all_indices = first_indices[array] | second_indices[array]
        if len(all_indices) > 1:
            return "cyclic"
    return "loop_independent"


def _dependence_graph(statements: List[Assign]) -> List[List[int]]:
    """Successor lists of the dependence graph over statement indices.

    Loop-independent dependences get a forward (program-order) edge;
    possibly-loop-carried ones get both edges so the SCC pass keeps the
    statements in one loop.
    """
    successors: List[List[int]] = [[] for _ in statements]
    for i, earlier in enumerate(statements):
        for j in range(i + 1, len(statements)):
            kind = _interference(earlier, statements[j])
            if kind is None:
                continue
            successors[i].append(j)
            if kind == "cyclic":
                successors[j].append(i)
    return successors


def ordered_components(successors: List[List[int]]) -> List[List[int]]:
    """Strongly-connected components in topological order.

    Tarjan's algorithm finds the components (members sorted); Kahn's
    algorithm then orders them, always emitting the ready component with
    the lowest member first, so unrelated statements keep program order.
    """
    count = len(successors)
    index = [-1] * count
    low = [0] * count
    component_of = [-1] * count
    stack: List[int] = []
    components: List[List[int]] = []
    visited = 0

    def visit(node: int) -> None:
        nonlocal visited
        index[node] = low[node] = visited
        visited += 1
        stack.append(node)
        for succ in successors[node]:
            if index[succ] < 0:
                visit(succ)
                low[node] = min(low[node], low[succ])
            elif component_of[succ] < 0:        # still on the stack
                low[node] = min(low[node], index[succ])
        if low[node] == index[node]:
            root = stack.index(node)
            members = stack[root:]
            del stack[root:]
            for member in members:
                component_of[member] = len(components)
            components.append(sorted(members))

    for node in range(count):
        if index[node] < 0:
            visit(node)
    edges: List[Set[int]] = [set() for _ in components]
    for node, succs in enumerate(successors):
        for succ in succs:
            if component_of[node] != component_of[succ]:
                edges[component_of[node]].add(component_of[succ])
    indegree = [0] * len(components)
    for targets in edges:
        for target in targets:
            indegree[target] += 1
    ready = [(members[0], c) for c, members in enumerate(components)
             if not indegree[c]]
    heapq.heapify(ready)
    order: List[List[int]] = []
    while ready:
        _, c = heapq.heappop(ready)
        order.append(components[c])
        for target in edges[c]:
            indegree[target] -= 1
            if not indegree[target]:
                heapq.heappush(ready, (components[target][0], target))
    return order


def distribute_loop(loop: Loop) -> List[Loop]:
    """Distribute one innermost loop; returns the replacement loops.

    Loops containing calls or nested loops are returned unchanged (calls
    are opaque to the dependence test, so distribution around them is not
    provably legal).
    """
    if not loop.is_innermost():
        return [loop]
    if any(isinstance(stmt, Call) for stmt in loop.body):
        return [loop]
    statements: List[Assign] = [s for s in loop.body
                                if isinstance(s, Assign)]
    if len(statements) < 2:
        return [loop]
    new_loops: List[Loop] = []
    for members in ordered_components(_dependence_graph(statements)):
        body: List[Stmt] = [statements[index] for index in members]
        new_loops.append(Loop(loop.var, loop.lower, loop.upper, body,
                              step=loop.step))
    return new_loops


def _distribute_stmts(stmts: List[Stmt]) -> List[Stmt]:
    out: List[Stmt] = []
    for stmt in stmts:
        if isinstance(stmt, Loop):
            if stmt.is_innermost():
                out.extend(distribute_loop(stmt))
            else:
                out.append(Loop(stmt.var, stmt.lower, stmt.upper,
                                _distribute_stmts(stmt.body),
                                step=stmt.step))
        else:
            out.append(stmt)
    return out


def distribute_kernel(kernel: Kernel) -> Kernel:
    """Apply loop distribution to every innermost loop of a kernel."""
    optimized = Kernel(
        name=kernel.name + "_dist",
        arrays=dict(kernel.arrays),
        consts=dict(kernel.consts),
        procedures={name: _distribute_stmts(body)
                    for name, body in kernel.procedures.items()},
        body=_distribute_stmts(kernel.body),
    )
    return optimized
