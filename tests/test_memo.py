"""The facts cached in the slots of every AST node (syntax.Node): hash,
closed canonical key, free variables and the unit-stripped form.

Every node is interned, so the canonical node's slots are the one cache of
its facts.  Each cached answer must equal a from-scratch computation with
every cache bypassed, whatever was cached first; copies, pickles, replace
and rebuilding return the canonical node; the slots do not show in repr;
the hash includes the class and is computed once, when the node is made;
and each other fact is computed at most once, also across two checks of
one proof script.
"""

import copy
import dataclasses
import pickle
from collections import Counter

import pytest

from conftest import term_corpus
from sepstore import syntax
from sepstore.grammar import parse, pretty_cmd
from sepstore.logic import (
    _CONNECTIVES, _strip_units, check_proof, parse_script,
)
from sepstore.syntax import (
    Emp, Exists, IntLit, PointsTo, Star, ValueLit, Var, canon_key,
    equal_mod_ac, free_vars, map_children,
)
from test_traversal_golden import ROOT, _walk, terms

# the slots filled on first use; _hash is filled when a node is made
MEMOS = ("_key", "_fv", "_stripped")


def clear(node):
    """Empty the memo slots of node and of all its sub-terms, as if each
    were made just now."""
    for n in _walk(node):
        for s in MEMOS:
            if hasattr(n, s):
                object.__delattr__(n, s)


def filled(node):
    """The memo slots set on node or on any of its sub-terms."""
    return {s for n in _walk(node) for s in MEMOS if hasattr(n, s)}


def reference(t, monkeypatch):
    """canon_key and free_vars of t with every cache bypassed: the
    per-class walks recurse into each other directly."""
    clear(t)
    with monkeypatch.context() as m:
        m.setattr(syntax, "_canon", syntax._canon_walk)
        m.setattr(syntax, "_free", syntax._free_walk)
        ref = canon_key(t), free_vars(t)
        assert not filled(t)
    return ref


def strip_reference(a):
    """_strip_units with no cache, written without the code under test:
    emp units under * removed everywhere but inside atoms and triples."""
    if type(a) not in _CONNECTIVES:
        return a
    b = map_children(a, strip_reference)
    if type(b) is Star and type(b.left) is Emp:
        return b.right
    if type(b) is Star and type(b.right) is Emp:
        return b.left
    return b


def corpus():
    seen = set()
    for _, t in list(terms()) + term_corpus(seed=11, n=150):
        if t not in seen:
            seen.add(t)
            yield t


# ---------------------------------------------------------------------------
# correctness


def test_shared_node_inside_and_outside_its_binder():
    p = PointsTo(IntLit(1), Var("x"))
    t = Star(p, Exists("x", p))
    assert Star(PointsTo(IntLit(1), Var("x")),
                Exists("x", PointsTo(IntLit(1), Var("x")))) is t
    assert t.left is t.right.body
    clear(t)
    assert canon_key(t) == "(* (exists (|-> i1 #0)) (|-> i1 v:x))"
    # the closed key of p is cached now; under the binder it must not leak
    assert canon_key(Exists("x", p)) == "(exists (|-> i1 #0))"
    assert free_vars(t) == ({"x"}, set())


def test_cached_facts_equal_a_from_scratch_reference(monkeypatch):
    n = 0
    for t in corpus():
        ref = reference(t, monkeypatch)
        cold = canon_key(t), free_vars(t)
        warm = canon_key(t), free_vars(t)
        assert cold == warm == ref, repr(t)
        # warm the sub-terms first, each on its own (closed), then the term
        clear(t)
        for s in _walk(t):
            canon_key(s), free_vars(s)
        assert (canon_key(t), free_vars(t)) == ref, repr(t)
        n += 1
    assert n > 300


def test_strip_units_cached_equals_fresh():
    for t in corpus():
        clear(t)
        cold = _strip_units(t)
        assert _strip_units(t) is cold
        assert cold is strip_reference(t)
        # the stripped form is a fixed point
        assert _strip_units(cold) is cold


# ---------------------------------------------------------------------------
# one node per term, whichever way it is made


def test_memo_slots_are_invisible():
    text = ("exists y. (mu X(p). {X(p) * p |-> y} 'skip' {emp})(y) "
            "* (emp * (1 |-> y /\\ y = 2))")
    t = parse(text, "assertion")
    for s in _walk(t):
        hash(s), canon_key(s), free_vars(s), _strip_units(s)
    assert filled(t) == set(MEMOS)
    assert not hasattr(t, "__dict__")
    # the parser builds the same node again, and a node with every memo
    # slot emptied still prints the same
    shown = repr(t)
    assert parse(text, "assertion") is t
    clear(t)
    assert not filled(t) and repr(t) == shown


def test_copies_pickles_and_replace_return_the_canonical_node():
    for t in corpus():
        for c in (copy.copy(t), copy.deepcopy(t),
                  pickle.loads(pickle.dumps(t)), dataclasses.replace(t),
                  map_children(t, copy.deepcopy)):
            assert c is t, repr(t)
    t = parse("exists y. 1 |-> y * emp", "assertion")
    assert dataclasses.replace(t, var="z") is parse("exists z. 1 |-> y * emp",
                                                    "assertion")
    assert dataclasses.replace(t.body, right=Emp()) is Star(
        PointsTo(IntLit(1), Var("y")), Emp())
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.var = "z"


# ---------------------------------------------------------------------------
# each fact is computed once


def counted_walks(monkeypatch):
    """Counters of the canonical-key and free-variable walks, by node."""
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
    return canon_walks, free_walks


def test_each_fact_is_computed_once(monkeypatch):
    canon_walks, free_walks = counted_walks(monkeypatch)
    for t in corpus():
        clear(t)
        occurrences = Counter(id(n) for n in _walk(t))
        canon_walks.clear()
        free_walks.clear()
        first = canon_key(t), free_vars(t)
        # a key under enclosing binders is not cached: it is walked once
        # per occurrence of the node, and the closed key once per node
        for (node, venv, renv), walks in canon_walks.items():
            assert walks == 1 or venv + renv and walks <= occurrences[node]
        assert max(free_walks.values()) == 1, repr(t)
        assert {k[0] for k in canon_walks} <= set(occurrences)
        assert set(free_walks) <= set(occurrences)
        canon_walks.clear()
        free_walks.clear()
        assert (canon_key(t), free_vars(t)) == first
        assert not canon_walks and not free_walks


def test_second_check_of_a_proof_walks_no_term(monkeypatch):
    text = (ROOT / "proofs" / "iterator_store_and_run.proof").read_text()
    canon_walks, free_walks = counted_walks(monkeypatch)
    first = check_proof(parse_script(text))
    assert first.ok
    canon_walks.clear()
    free_walks.clear()
    # parsing again yields the same nodes, and substitution hands back
    # the ones it does not reach, so every fact is already cached
    second = check_proof(parse_script(text))
    assert second.ok
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
    # made once: the payload is hashed while the ValueLit is looked up,
    # kept and given its own hash, and never again
    made = Counted.calls
    assert made
    clear(t)
    first = hash(t)
    assert hash(t) == first and Counted.calls == made
    assert not filled(t)
    # the sub-terms' hashes were kept while hashing t
    assert hash(t.left.value) and Counted.calls == made
    # making t again looks the ValueLit up by its payload; every other
    # node is looked up by the kept hashes of its fields
    assert Star(PointsTo(IntLit(1), ValueLit(v)),
                Exists("x", Var("x"))) is t
    assert Counted.calls == made + 1 and hash(t) == first
    # the value is the hash of the class name and the field tuple
    assert first == hash(("Star", t.left, t.right))


# ---------------------------------------------------------------------------
# deep terms


def test_long_sequence_does_not_exhaust_the_stack():
    text = " ; ".join(["[x] := 1"] * 400)
    prog = parse(text, "program")
    assert pretty_cmd(parse(pretty_cmd(prog), "program")) == pretty_cmd(prog)
    assert free_vars(prog) == ({"x"}, set())
    assert canon_key(prog).count("(:= v:x i1)") == 400
    assert equal_mod_ac(prog, parse(text, "program"))


def test_equal_long_sequences_are_one_object():
    # `==` is identity and does not recurse; the generated dataclass `==`
    # stopped at ~340 statements
    text = " ; ".join(f"[x] := {i % 7}" for i in range(800))
    p = parse(text, "program")
    assert parse(text, "program") is p
    assert parse(pretty_cmd(p), "program") is p
    assert p == parse(text, "program")
    assert hash(p) == hash(("Seq", p.first, p.second))
