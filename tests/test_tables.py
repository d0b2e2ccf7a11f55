"""The one intern table, serials, and the model's tables keyed by them.

Every AST node and runtime value lives in one intern table, syntax._NODES,
and carries a serial, `_id`, drawn from one counter when it is made.  A
serial is a table key only: the model keys its tables by serials, in the
process-wide registry syntax.TABLES for its functions of heaps and terms
alone and in the Tester for those of its configuration, so each table
must answer what the function it tables answers.
"""

import copy
import pickle

import pytest

from sepstore import logic, semantics, syntax
from sepstore.config import default_config, load_config
from sepstore.fuzz import fuzz_config
from sepstore.interp import (
    EMPTY_ENV, INF, CodeVal, Env, Heap, IntVal, rank, tag_raises, truncate,
)
from sepstore.semantics import (
    Tester, UniverseOverflow, mu_approximation, splits, truncations,
)
from sepstore.syntax import FalseA, Mu, Skip, substitute, unfold
from test_acceptance import C_IT
from test_interp import _reference_splits
from test_traversal_golden import _walk, terms


def _fill_the_table():
    Tester(fuzz_config()).universe()
    list(terms())


def test_serials_are_distinct_in_the_one_intern_table():
    _fill_the_table()
    objects = list(syntax._NODES.values())
    serials = [x._id for x in objects]
    assert len(serials) == len(set(serials))
    assert {type(x) for x in objects} >= {IntVal, Env, CodeVal, Heap, Mu}
    assert len(serials) > 1000


def test_every_object_is_the_entry_for_its_own_fields():
    _fill_the_table()
    for x in list(syntax._NODES.values()):
        fields = (getattr(x, f) for f in type(x).__match_args__)
        assert syntax._NODES[(type(x), *fields)] is x, repr(x)


def test_copies_pickles_and_replace_keep_the_serial():
    tester = Tester(fuzz_config())
    objects = [t for _, t in terms()][:50] + tester.universe() \
        + list(tester.values()) + [Env.of({"x": IntVal(1)})]
    for x in objects:
        for c in (copy.copy(x), copy.deepcopy(x),
                  pickle.loads(pickle.dumps(x)), syntax.replace(x)):
            assert c._id == x._id, repr(x)


def _testers_and_heaps():
    fuzz = Tester(fuzz_config())
    default = Tester(default_config())
    return ((fuzz, fuzz.universe()), (default, default.universe()[::7]))


def test_truncation_table_equals_truncate_at_every_level():
    for tester, heaps in _testers_and_heaps():
        for h in heaps:
            levels = truncations(h, "a test")
            assert levels == tuple(truncate(n, h)
                                   for n in range(int(rank(h)) + 1))
            assert truncations(h, "a test") is levels
            assert syntax.TABLES["truncations"][h._id] is levels
    unranked = Heap(((1, CodeVal(Skip(), EMPTY_ENV, INF)),))
    with pytest.raises(UniverseOverflow, match="a test on a heap"):
        truncations(unranked, "a test")
    assert unranked._id not in syntax.TABLES["truncations"]


def test_binding_table_equals_env_bind_over_the_values():
    for tester, _ in _testers_and_heaps():
        envs = [EMPTY_ENV, Env.of({"x": IntVal(1)}),
                Env.of({"x": IntVal(0), "y": tester.values()[-1]})]
        for env in envs:
            for x in ("x", "y", "z"):
                bound = tester.bindings(env, x)
                assert bound == tuple(env.bind(x, d)
                                      for d in tester.values())
                assert tester.bindings(env, x) is bound


def mu_reference(mu, depth):
    """mu_approximation with no table: depth - 1 unfoldings from false
    inside one unfolding at the arguments."""
    approx = FalseA()
    for _ in range(depth - 1):
        approx = substitute(mu.body, rel_map={mu.relvar: (mu.params, approx)})
    return unfold(mu, approx)


def test_mu_table_equals_mu_approximation():
    mus = {n for _, t in terms() for n in _walk(t) if type(n) is Mu}
    assert len(mus) > 10
    for m in sorted(mus, key=repr):
        for depth in (1, 2, 3):
            syntax.TABLES["mu_approximation"].pop((m._id, depth), None)
            approx = mu_approximation(m, depth)
            assert approx is mu_reference(m, depth)
            assert mu_approximation(m, depth) is approx


def test_raise_table_equals_tag_raises():
    for tester, heaps in _testers_and_heaps():
        top = max(tester.cfg.tag_max, tester.cfg.level_k)
        for h in heaps:
            above = tester.raises(h)
            assert above == tag_raises(h, top)
            assert tester.raises(h) is above


ITERATOR_CONFIG = f"""\
addrs = 1, 2, 3
ints = 0, 1, 2
code = skip ;; {C_IT}
tag_max = 3
k = 3
"""


def _fresh_answers(h, index=None):
    """splits(h) and truncations(h) through `index` as lists, with their
    table entries popped first, so that each is computed, not looked
    up."""
    syntax.TABLES["splits"].pop(h._id, None)
    syntax.TABLES["truncations"].pop(h._id, None)
    return list(splits(h, index)), list(truncations(h, "a test", index))


def _references(h):
    """The per-cell answers; Heap == Heap is identity, so lists equal to
    them hold the same heaps in the same order."""
    return _reference_splits(h), \
        [truncate(n, h) for n in range(int(rank(h)) + 1)]


def _no_heap_built(*args):
    raise AssertionError("a universe heap took the per-cell path")


def test_every_table_tables_a_function():
    # home 2 of the syntax docstring holds pure functions' answers only
    for name in syntax.TABLES:
        assert any(callable(getattr(m, name, None))
                   for m in (logic, semantics)), name


def test_index_path_equals_the_per_cell_references(monkeypatch):
    for cfg, size in ((default_config(), 2198), (fuzz_config(), 37),
                      (load_config(ITERATOR_CONFIG), 1729)):
        tester = Tester(cfg)
        heaps = tester.universe()
        index = tester._index
        assert len(heaps) == size
        assert tester._ranks == [rank(h) for h in heaps]
        assert [index.bits[h._id] for h in heaps] == tester._order
        with monkeypatch.context() as m:
            # the per-cell path builds its heaps with these two; Bot has
            # no code and keeps it
            m.setattr(semantics, "Heap", _no_heap_built)
            m.setattr(semantics, "truncate", _no_heap_built)
            answers = [_fresh_answers(h, index) for h in heaps[1:]]
        assert [_fresh_answers(heaps[0], index)] + answers \
            == [_references(h) for h in heaps]


def test_heaps_outside_the_universe_take_the_per_cell_path():
    tester = Tester(default_config())
    tester.universe()
    skip = CodeVal(Skip(), EMPTY_ENV, 1)
    outside = [
        Heap(((1, IntVal(0)), (4, IntVal(1)))),               # address 4
        Heap(((2, IntVal(7)), (3, skip))),                    # int 7
        Heap(((1, CodeVal(Skip(), EMPTY_ENV, 4)), (2, skip))),  # tag 4
        Heap(((1, CodeVal(Skip(), Env.of({"x": IntVal(1)}), 2)),
              (3, IntVal(0)))),                               # captured
    ]
    for h in outside:
        assert tester._index.bit(h) is None
        assert h._id not in tester._index.bits
        assert _fresh_answers(h, tester._index) == _references(h), h


def test_shared_heap_gets_one_answer_whichever_universe_came_first():
    fuzz, default = Tester(fuzz_config()), Tester(default_config())
    fuzz_heaps = set(fuzz.universe())
    shared = [h for h in default.universe()
              if h in fuzz_heaps and not h.is_bot]
    assert len(shared) == len(fuzz_heaps) - 1 == 36
    indexes = (fuzz._index, default._index)
    assert [len(i.by_code) for i in indexes] == [6 ** 2, 13 ** 3]
    # each index numbers the shared heaps by its own codes
    assert all(h._id in i.bits for i in indexes for h in shared)
    answers = [[_fresh_answers(h, i) for h in shared] for i in indexes]
    assert answers[0] == answers[1] == [_references(h) for h in shared]
