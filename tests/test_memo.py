"""The facts cached in the slots of every AST node (syntax.Node): hash,
closed canonical key, free variables and the unit-stripped form.

Each cached answer must equal a from-scratch computation on a structurally
equal fresh copy, whatever was cached first; the slots must not show in
==, repr or copies, and the cached hash is the structural one; and each
fact is computed at most once.
"""

import copy
import dataclasses
import pickle
from collections import Counter

from conftest import term_corpus
from sepstore import syntax
from sepstore.grammar import parse, pretty_cmd
from sepstore.logic import _strip_units
from sepstore.syntax import (
    Exists, IntLit, Node, PointsTo, Star, ValueLit, Var, canon_key,
    equal_mod_ac, free_vars, map_children,
)
from test_traversal_golden import _walk, terms


def fresh_copy(node):
    """A structurally equal copy sharing no node with `node`."""
    def cp(v):
        if isinstance(v, Node):
            return fresh_copy(v)
        if isinstance(v, tuple):
            return tuple(cp(x) for x in v)
        return v
    return type(node)(**{f.name: cp(getattr(node, f.name))
                         for f in dataclasses.fields(node)})


def filled(node):
    """The memo slots set on node or on any of its sub-terms."""
    return {s for n in _walk(node) for s in Node.__slots__ if hasattr(n, s)}


def reference(t, monkeypatch):
    """canon_key and free_vars of a fresh copy of t with every cache
    bypassed: the per-class walks recurse into each other directly."""
    with monkeypatch.context() as m:
        m.setattr(syntax, "_canon", syntax._canon_walk)
        m.setattr(syntax, "_free", syntax._free_walk)
        u = fresh_copy(t)
        ref = canon_key(u), free_vars(u)
        assert not filled(u)
    return ref


def corpus():
    seen = set()
    for _, t in list(terms()) + term_corpus(seed=11, n=150):
        if repr(t) not in seen:
            seen.add(repr(t))
            yield t


# ---------------------------------------------------------------------------
# correctness


def test_shared_node_inside_and_outside_its_binder():
    p = PointsTo(IntLit(1), Var("x"))
    t = Star(p, Exists("x", p))
    u = fresh_copy(t)
    assert canon_key(t) == canon_key(u)
    assert canon_key(t) == "(* (exists (|-> i1 #0)) (|-> i1 v:x))"
    # the closed key of p is cached now; under the binder it must not leak
    assert canon_key(Exists("x", p)) == "(exists (|-> i1 #0))"
    assert free_vars(t) == ({"x"}, set())


def test_cached_facts_equal_a_from_scratch_reference(monkeypatch):
    n = 0
    for t in corpus():
        ref = reference(t, monkeypatch)
        a = fresh_copy(t)
        cold = canon_key(a), free_vars(a)
        warm = canon_key(a), free_vars(a)
        assert cold == warm == ref, repr(t)
        # warm the sub-terms first, each on its own (closed), then the term
        b = fresh_copy(t)
        for s in _walk(b):
            canon_key(s), free_vars(s)
        assert (canon_key(b), free_vars(b)) == ref, repr(t)
        n += 1
    assert n > 300


def test_strip_units_cached_equals_fresh():
    for t in corpus():
        a = fresh_copy(t)
        cold = _strip_units(a)
        assert _strip_units(a) is cold
        assert cold == _strip_units(fresh_copy(t))
        # the stripped form is a fixed point
        assert _strip_units(cold) == cold


# ---------------------------------------------------------------------------
# the slots cannot be seen from outside


def test_memo_slots_are_invisible():
    t = parse("exists y. (mu X(p). {X(p) * p |-> y} 'skip' {emp})(y) "
              "* (emp * (1 |-> y /\\ y = 2))", "assertion")
    for s in _walk(t):
        hash(s), canon_key(s), free_vars(s), _strip_units(s)
    assert filled(t) == set(Node.__slots__)
    u = fresh_copy(t)
    assert not filled(u)
    assert not hasattr(t, "__dict__")
    assert t == u and hash(t) == hash(u) and repr(t) == repr(u)
    deep = copy.deepcopy(t), pickle.loads(pickle.dumps(t))
    copies = (dataclasses.replace(t), copy.copy(t)) + deep
    # no slot is copied; checked before hash() fills the copies' _hash
    for c in copies:
        assert not any(hasattr(c, s) for s in Node.__slots__)
    assert not any(filled(c) for c in deep)
    for c in copies:
        assert c == t and hash(c) == hash(t) and repr(c) == repr(t)
    rebuilt = map_children(t, fresh_copy)
    assert rebuilt == t and rebuilt is not t
    assert not filled(rebuilt)


# ---------------------------------------------------------------------------
# each fact is computed once


def test_each_fact_is_computed_once(monkeypatch):
    canon_walks, free_walks = Counter(), Counter()
    canon_walk, free_walk = syntax._canon_walk, syntax._free_walk

    def count_canon(ast, venv, renv):
        canon_walks[id(ast), venv, renv] += 1
        return canon_walk(ast, venv, renv)

    def count_free(ast):
        free_walks[id(ast)] += 1
        return free_walk(ast)

    monkeypatch.setattr(syntax, "_canon_walk", count_canon)
    monkeypatch.setattr(syntax, "_free_walk", count_free)
    for t in corpus():
        t = fresh_copy(t)
        nodes = {id(n) for n in _walk(t)}
        canon_walks.clear()
        free_walks.clear()
        first = canon_key(t), free_vars(t)
        assert max(canon_walks.values()) == 1, repr(t)
        assert max(free_walks.values()) == 1, repr(t)
        assert {k[0] for k in canon_walks} <= nodes
        assert set(free_walks) <= nodes
        canon_walks.clear()
        free_walks.clear()
        assert (canon_key(t), free_vars(t)) == first
        assert not canon_walks and not free_walks


def test_hash_is_computed_once():
    class Counted:
        """A ValueLit payload that counts how often it is hashed."""
        calls = 0

        def __hash__(self):
            Counted.calls += 1
            return 7

    v = Counted()
    t = Star(PointsTo(IntLit(1), ValueLit(v)), Exists("x", Var("x")))
    assert not filled(t)
    first = hash(t)
    assert Counted.calls == 1 and filled(t) == {"_hash"}
    assert hash(t) == first and Counted.calls == 1
    # the sub-terms' hashes were kept while hashing t
    assert hash(t.left.value) and Counted.calls == 1
    # a structurally equal copy computes the same hash once itself
    u = fresh_copy(t)
    assert hash(u) == first and Counted.calls == 2
    assert hash(u) == first and Counted.calls == 2
    # the value is the generated dataclass hash of the field tuple
    assert first == hash((t.left, t.right))


# ---------------------------------------------------------------------------
# deep terms


def test_long_sequence_does_not_exhaust_the_stack():
    text = " ; ".join(["[x] := 1"] * 400)
    prog = parse(text, "program")
    # compared as text: `==` on dataclasses recurses about three C levels
    # per nesting level and stops at ~330 statements
    assert pretty_cmd(parse(pretty_cmd(prog), "program")) == pretty_cmd(prog)
    assert free_vars(prog) == ({"x"}, set())
    assert canon_key(prog).count("(:= v:x i1)") == 400
    assert equal_mod_ac(prog, parse(text, "program"))
