"""Interpreter tests: projections, rank, heap order, execution, and the
interning of runtime values."""

import copy
import dataclasses
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Names, rand_cmd
from sepstore import interp, syntax
from sepstore.config import default_config
from sepstore.fuzz import fuzz_config
from sepstore.grammar import parse, pretty_cmd
from sepstore.interp import (
    BOT, EMPTY_ENV, EMPTY_HEAP, INF, CodeVal, Done, Env, Fault, Heap,
    IntVal, OutOfFuel, exec_cmd, eval_expr, format_heap, format_value,
    heap_join, heap_leq, parse_heap_text, rank, run_codeval, tag_raises,
    truncate, value_raises,
)
from sepstore.semantics import Tester, splits
from sepstore.syntax import Quote, Seq, Skip

ROOT = Path(__file__).resolve().parent.parent


def prog(text):
    return parse(text, "program")


SKIP_CODE = CodeVal(Skip(), EMPTY_ENV, INF)


def small_universe():
    """Exhaustive set of heaps over two addresses and a few values."""
    vals = [IntVal(0), IntVal(1)] + [CodeVal(Skip(), EMPTY_ENV, t)
                                     for t in (0, 1, 2, INF)]
    heaps = [BOT, EMPTY_HEAP]
    for dom in ((1,), (2,), (1, 2)):
        for combo in itertools.product(vals, repeat=len(dom)):
            heaps.append(Heap(tuple(zip(dom, combo))))
    return heaps


# ---------------------------------------------------------------------------
# projections and rank


def test_rank_base_cases():
    assert rank(EMPTY_HEAP) == 1
    assert rank(BOT) == 0
    assert rank(Heap(((1, IntVal(5)),))) == 1
    assert rank(Heap(((1, CodeVal(Skip(), EMPTY_ENV, 2)),))) == 3
    assert rank(Heap(((1, SKIP_CODE),))) == INF


def test_truncate_examples():
    h = Heap(((1, IntVal(3)), (2, CodeVal(Skip(), EMPTY_ENV, 4))))
    assert truncate(0, h) == BOT
    assert truncate(2, h) == Heap(((1, IntVal(3)),
                                   (2, CodeVal(Skip(), EMPTY_ENV, 1))))
    assert truncate(9, h) == h
    assert truncate(3, BOT) == BOT


def test_truncate_min_law_small_exhaustive():
    for h in small_universe():
        for n in range(4):
            for m in range(4):
                assert truncate(n, truncate(m, h)) \
                    == truncate(min(n, m), h)


def test_truncate_fixes_at_rank():
    for h in small_universe():
        r = rank(h)
        if r == INF:
            continue
        assert truncate(r, h) == h
        if r > 0:
            assert truncate(r - 1, h) != h


def copying_truncate(n, h):
    """truncate as it was first written: it rebuilds every heap it does
    not collapse to Bot."""
    if n == 0:
        return BOT
    if h.is_bot:
        return h
    cells = []
    for a, v in h.cells:
        if isinstance(v, CodeVal) and v.tag > n - 1:
            v = CodeVal(v.body, v.captured, n - 1)
        cells.append((a, v))
    return Heap(tuple(cells))


def test_truncate_at_or_above_rank_returns_the_heap_itself():
    checked = 0
    for cfg in (fuzz_config(), default_config()):
        uni = Tester(cfg).universe()
        top = max(map(rank, uni))
        for h in uni:
            for n in [*range(top + 2), INF]:
                if n >= rank(h):
                    assert truncate(n, h) is h, (n, h)
                else:
                    assert truncate(n, h) is copying_truncate(n, h), (n, h)
                checked += 1
    assert checked > 10_000


def test_truncate_distributes_over_join_small_exhaustive():
    hs = small_universe()
    for h1 in hs:
        for h2 in hs:
            for n in range(4):
                assert truncate(n, heap_join(h1, h2)) \
                    == heap_join(truncate(n, h1), truncate(n, h2))


# ---------------------------------------------------------------------------
# order and join


def test_heap_leq_basics():
    lo = Heap(((1, CodeVal(Skip(), EMPTY_ENV, 1)),))
    hi = Heap(((1, SKIP_CODE),))
    assert heap_leq(BOT, lo) and heap_leq(lo, hi)
    assert not heap_leq(hi, lo)
    assert not heap_leq(Heap(((1, IntVal(0)),)), Heap(((2, IntVal(0)),)))
    assert not heap_leq(Heap(((1, IntVal(0)),)), Heap(((1, IntVal(1)),)))


def test_heap_leq_partial_order():
    hs = small_universe()
    for h in hs:
        assert heap_leq(h, h)
    for h1 in hs:
        for h2 in hs:
            if heap_leq(h1, h2) and heap_leq(h2, h1):
                assert h1 == h2


def test_truncate_monotone():
    hs = small_universe()
    for h1 in hs:
        for h2 in hs:
            if heap_leq(h1, h2):
                for n in range(4):
                    assert heap_leq(truncate(n, h1), truncate(n, h2))


def test_heap_join():
    a = Heap(((1, IntVal(0)),))
    b = Heap(((2, IntVal(1)),))
    assert heap_join(a, b) == Heap(((1, IntVal(0)), (2, IntVal(1))))
    assert heap_join(a, b) == heap_join(b, a)
    assert heap_join(a, a) == BOT          # overlapping domains
    assert heap_join(a, BOT) == BOT
    assert heap_join(a, EMPTY_HEAP) == a


def test_tag_raises_are_upper_set():
    h = Heap(((1, CodeVal(Skip(), EMPTY_ENV, 1)), (2, IntVal(0))))
    ups = tag_raises(h, 3)
    assert h in ups
    assert all(heap_leq(h, g) for g in ups)
    tags = sorted(g.get(1).tag for g in ups)
    assert tags == [1, 2, 3]


# ---------------------------------------------------------------------------
# expression evaluation


def test_eval_expr():
    env = Env.of({"x": IntVal(4)})
    assert eval_expr(parse("x + 2", "expr"), env) == IntVal(6)
    assert eval_expr(parse("(x * x) - 1", "expr"), env) == IntVal(15)
    code = eval_expr(parse("'[1] := x'", "expr"), env)
    assert isinstance(code, CodeVal) and code.tag == INF
    assert code.captured == env  # the closure captures its free variables
    from sepstore.interp import TypeFault, UnboundVariable
    with pytest.raises(UnboundVariable):
        eval_expr(parse("y", "expr"), env)
    with pytest.raises(TypeFault):
        eval_expr(parse("'skip' + 1", "expr"), env)


# ---------------------------------------------------------------------------
# command execution


def run(text, heap_text="", fuel=1000):
    return exec_cmd(prog(text), EMPTY_ENV, parse_heap_text(heap_text), fuel)


def test_exec_assign_deref_free():
    out = run("[1] := 7", "1 = 0")
    assert out == Done(Heap(((1, IntVal(7)),)))
    out = run("let x = [1] in [2] := x + 1", "1 = 5\n2 = 0")
    assert out == Done(Heap(((1, IntVal(5)), (2, IntVal(6)))))
    out = run("free(1)", "1 = 5\n2 = 0")
    assert out == Done(Heap(((2, IntVal(0)),)))


def test_exec_new_allocates_fresh_block():
    out = run("let x = new 8, 9 in [1] := x", "1 = 0\n3 = 0")
    # the two fresh contiguous cells must avoid addresses 1 and 3
    assert isinstance(out, Done)
    cells = out.heap.to_dict()
    base = cells[1].n
    assert base not in (1, 3) and base + 1 not in (1, 3)
    assert cells[base] == IntVal(8) and cells[base + 1] == IntVal(9)


def test_exec_faults():
    assert isinstance(run("[1] := 0"), Fault)          # dangling update
    assert isinstance(run("free(2)", "1 = 0"), Fault)  # dangling free
    assert isinstance(run("eval [1]", "1 = 5"), Fault)  # eval of an integer
    assert isinstance(run("[1] := 'skip' + 1", "1 = 0"), Fault)


def test_exec_if():
    out = run("if (1 = 1) then [1] := 1 else [1] := 2", "1 = 0")
    assert out.heap.get(1) == IntVal(1)
    out = run("if (0 = 1) then [1] := 1 else [1] := 2", "1 = 0")
    assert out.heap.get(1) == IntVal(2)
    # comparing code values never terminates
    out = exec_cmd(prog("if (x = 0) then skip else skip"),
                   Env.of({"x": SKIP_CODE}), EMPTY_HEAP, 1000)
    assert isinstance(out, OutOfFuel)


def test_exec_on_bot_is_bot():
    assert run("[1] := 0", "") != exec_cmd(prog("[1] := 0"), EMPTY_ENV,
                                           BOT, 10)
    assert exec_cmd(prog("free(1)"), EMPTY_ENV, BOT, 10) == Done(BOT)


def test_self_eval_runs_out_of_fuel():
    out = run("eval [1]", "1 = 'eval [1]'", fuel=50)
    assert isinstance(out, OutOfFuel)


def test_laundering_program_faults_deterministically():
    text = "let x = [2] in ([3] := x ; eval [3])"
    heap = "1 = 0\n2 = 'free(-1)'\n3 = 'skip'"
    for _ in range(3):
        out = run(text, heap)
        assert isinstance(out, Fault)


def test_tagged_code_truncates_result():
    # the stored command writes untagged code; run through a tag-2 closure
    # the result heap is truncated at level 2
    v = CodeVal(prog("[1] := 'skip'"), EMPTY_ENV, 2)
    out = run_codeval(v, parse_heap_text("1 = 0"), 100)
    assert out == Done(Heap(((1, CodeVal(Skip(), EMPTY_ENV, 1)),)))
    # tag 0 never terminates
    assert isinstance(run_codeval(CodeVal(Skip(), EMPTY_ENV, 0),
                                  EMPTY_HEAP, 100), OutOfFuel)


def test_fuel_monotone():
    cases = [("eval [3] ; eval [3]", "3 = '[4] := 0'"),
             ("[1] := 1 ; ([2] := 2 ; skip)", "1 = 0\n2 = 0"),
             ("eval [1]", "1 = 'free(2)'")]
    for text, heap in cases:
        outs = [run(text, heap, fuel=f) for f in range(0, 12)]
        # once a run completes or faults, more fuel never changes it
        settled = None
        for out in outs:
            if settled is None and not isinstance(out, OutOfFuel):
                settled = out
            if settled is not None:
                assert out == settled


def _recursive_exec(new_exec):
    """The recursive binary `;` clause, one frame per statement, reading
    c1 ; ... ; cn as (c1 ; ... ; cn-1) ; cn, as the reference for the loop
    over a chain; every other command is new_exec's, and its own
    recursive calls come back here."""
    def ref(C, env, h, fuel):
        if type(C) is not Seq or h.is_bot:
            return new_exec(C, env, h, fuel)
        if fuel <= 0:
            return OutOfFuel(), fuel
        *init, last = C.cmds
        first = Seq(tuple(init)) if len(init) > 1 else init[0]
        out, fuel = ref(first, env, h, fuel - 1)
        if not isinstance(out, Done):
            return out, fuel
        return ref(last, env, out.heap, fuel)
    return ref


def test_sequence_loop_keeps_the_recursive_outcome_and_fuel(monkeypatch):
    rng = random.Random(0)
    programs = [(rand_cmd(rng, Names(), 3), 8) for _ in range(60)]
    # chains with a faulting statement at each place: the `;`s spend
    # their fuel before the first statement runs, so a faulting first
    # statement with too little fuel runs out of fuel instead
    stmts = ["[1] := 1", "eval [1]", "let v = [1] in [2] := v", "skip"]
    for n in range(1, 5):
        for k in range(n):
            chain = stmts[:k] + ["free(9)"] + stmts[k:n - 1]
            programs.append((prog(" ; ".join(chain)), n + 1))
    env = Env.of({"x": IntVal(1), "y": IntVal(2), "z": IntVal(0)})
    heaps = Tester(fuzz_config()).universe()
    new_exec = interp._exec
    ref = _recursive_exec(new_exec)
    for c, n in programs:
        for fuel in range(n + 1):
            got = [new_exec(c, env, h, fuel) for h in heaps]
            monkeypatch.setattr(interp, "_exec", ref)
            want = [ref(c, env, h, fuel) for h in heaps]
            monkeypatch.setattr(interp, "_exec", new_exec)
            assert got == want, (pretty_cmd(c), fuel)
    assert isinstance(run("free(9) ; skip", "1 = 0", fuel=0), OutOfFuel)
    assert isinstance(run("free(9) ; skip", "1 = 0", fuel=1), Fault)


def test_thousand_statement_chain_runs_from_the_command_line(tmp_path):
    # a fresh process: the interpreter runs a chain in a loop, not one
    # stack frame per statement
    path = tmp_path / "chain.prog"
    path.write_text(" ; ".join(["[1] := 1"] * 1000))
    heap = tmp_path / "chain.heap"
    heap.write_text("1 = 0")
    src = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                        os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "sepstore.cli", "run",
                           str(path), str(heap)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.endswith("\n1 = 1\n")


# ---------------------------------------------------------------------------
# the heap text format


def test_heap_text_roundtrip():
    text = "1 = 42\n2 = 'skip'\n3 = '[1] := 2'@1"
    h = parse_heap_text(text)
    assert h.get(1) == IntVal(42)
    assert h.get(2) == SKIP_CODE
    assert h.get(3).tag == 1
    assert parse_heap_text(format_heap(h)) == h
    assert format_heap(BOT) == "<bot>"
    assert format_heap(EMPTY_HEAP) == "<empty>"
    assert format_value(IntVal(3)) == "3"
    with pytest.raises(ValueError):
        parse_heap_text("0 = 1")  # addresses are positive


def test_heap_text_refuses_a_repeated_address():
    # the second line used to overwrite the first without a word
    with pytest.raises(ValueError, match="^line 3: address 1 is already "
                       "given on line 1$"):
        parse_heap_text("1 = 0\n2 = 1\n1 = 2")


def test_default_universe_is_finite_and_ranked():
    tester = Tester(default_config())
    uni = tester.universe()
    assert 2000 < len(uni) < 10 ** 4
    assert BOT in uni and EMPTY_HEAP in uni
    r0 = tester.universe_up_to_rank(0)
    assert r0 == [BOT]
    assert all(rank(h) <= 2 for h in tester.universe_up_to_rank(2))
    # the ranks are taken once, when the universe is built; each level
    # keeps universe order
    for tester in (Tester(fuzz_config()), tester):
        uni = tester.universe()
        top = max(map(rank, uni))
        for n in range(top + 2):
            assert tester.universe_up_to_rank(n) == [
                h for h in uni if rank(h) <= n]
        assert tester.universe_up_to_rank(top) == uni


# ---------------------------------------------------------------------------
# interning: one object per value


def test_equal_values_from_every_constructor_are_one_object():
    code = CodeVal(prog("[1] := 2"), EMPTY_ENV, 1)
    h = Heap(((1, IntVal(3)), (2, code)))
    assert IntVal(3) is IntVal(3) and IntVal(3) is not IntVal(4)
    assert Heap.of({2: code, 1: IntVal(3)}) is h
    assert Heap(cells=((1, IntVal(3)), (2, code))) is h
    assert parse_heap_text("1 = 3\n2 = '[1] := 2'@1") is h
    assert truncate(2, Heap(((1, IntVal(3)),
                             (2, CodeVal(prog("[1] := 2")))))) is h
    assert truncate(5, h) is h and truncate(0, h) is BOT
    assert Heap(None) is BOT and Heap.bot() is BOT and Heap() is EMPTY_HEAP
    assert h in tag_raises(Heap(((1, IntVal(3)),
                                 (2, CodeVal(prog("[1] := 2"), tag=0)))), 3)
    assert h in tag_raises(h, 3)
    assert value_raises(code, 1) == [code]
    env = Env.of({"x": IntVal(1), "y": code})
    assert EMPTY_ENV.bind("y", code).bind("x", IntVal(1)) is env
    assert env.bind("x", IntVal(1)) is env and Env() is EMPTY_ENV
    assert env.restrict({"x"}) is Env((("x", IntVal(1)),))
    assert CodeVal(prog("[1] := 2"), EMPTY_ENV, 1) is code
    # equality is identity: a distinct but equal body still finds the value
    assert CodeVal(code.body, captured=EMPTY_ENV, tag=1) is code


def test_copies_pickles_and_replace_return_the_canonical_value():
    code = CodeVal(prog("let x = [1] in [2] := x"),
                   Env.of({"z": IntVal(0)}), 2)
    values = [IntVal(7), code.captured, code, BOT, EMPTY_HEAP,
              Heap(((1, code), (3, IntVal(-1))))]
    for v in values:
        for c in (copy.copy(v), copy.deepcopy(v),
                  pickle.loads(pickle.dumps(v)), syntax.replace(v)):
            assert c is v, repr(v)
    assert syntax.replace(code, tag=INF) is CodeVal(code.body,
                                                    code.captured)
    with pytest.raises(dataclasses.FrozenInstanceError):
        code.tag = 3


def test_code_tags_2_and_2_0_are_one_value():
    # a body no other test builds, so the float tag makes the value here
    body = prog("[9] := 2020")
    assert (CodeVal, body, EMPTY_ENV, 2) not in syntax._NODES
    a = CodeVal(body, EMPTY_ENV, 2.0)
    b = CodeVal(body, EMPTY_ENV, 2)
    assert a is b and a.tag == 2 and type(a.tag) is int
    assert repr(CodeVal(Skip(), EMPTY_ENV, 2.0)) \
        == "CodeVal(body=Skip(), captured=Env(items=()), tag=2)"
    assert CodeVal(body, EMPTY_ENV, INF).tag == INF


def test_value_hash_is_the_structural_hash():
    # one formula for values and nodes: the class name and the fields
    code = CodeVal(prog("[1] := x"), Env.of({"x": IntVal(2)}), 1)
    h = Heap(((1, code),))
    assert hash(IntVal(5)) == hash(("IntVal", 5))
    assert hash(code.captured) == hash(("Env", code.captured.items))
    assert hash(code) == hash(("CodeVal", code.body, code.captured, 1))
    assert hash(h) == hash(("Heap", h.cells))
    assert hash(code.body) == hash(("Assign", code.body.target,
                                    code.body.source))


def _reference_splits(h):
    """The pairs h = h1 * h2 in the order the split table must keep: h1
    holds the cells picked by the bits of a mask counted up from 0."""
    if h.is_bot:
        return [(h, h)]
    cells = h.cells
    out = []
    for mask in range(1 << len(cells)):
        left = tuple(c for i, c in enumerate(cells) if mask >> i & 1)
        right = tuple(c for i, c in enumerate(cells) if not mask >> i & 1)
        out.append((Heap(left), Heap(right)))
    return out


def test_split_table_keeps_the_enumerator_order():
    for heaps in (Tester(fuzz_config()).universe(),
                  Tester(default_config()).universe()[::7]):
        for h in heaps:
            # Heap == Heap is identity, so equal pairs are the same heaps
            pairs = splits(h)
            assert list(pairs) == _reference_splits(h)
            assert splits(h) is pairs
