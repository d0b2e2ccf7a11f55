"""The facts cached about every AST node: in its slots (syntax.Node) the
hash, closed canonical node and free variables; in the registry
syntax.TABLES the answer of each pure function of terms on the entailer's
path, keyed by the serials of its arguments.

Every node is interned, so the canonical node's slots and its row in each
table are the one cache of its facts.  Each cached answer must equal a
from-scratch computation with every cache bypassed, whatever was cached
first; copies, pickles, replace and rebuilding return the canonical node;
the slots do not show in repr; the hash includes the class and is computed
once, when the node is made; and each other fact is computed at most once,
also across two checks of one proof script.
"""

import copy
import dataclasses
import functools
import importlib.util
import os
import pickle
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

from conftest import term_corpus
from sepstore import logic, syntax
from sepstore.grammar import parse, pretty_cmd
from sepstore.logic import (
    REJECTED, _CONNECTIVES, _strip_units, check_proof, entail_basic,
    parse_script,
)
from sepstore.syntax import (
    And, Assign, Emp, Exists, Forall, IntLit, Mu, Or, PointsTo, RelVar,
    Star, ValueLit, Var, binders, canon_key, equal_mod_ac, free_vars,
    map_children, substitute,
)
from test_traversal_golden import ROOT, _walk, terms

# the slots filled on first use; _hash is filled when a node is made
MEMOS = ("_key", "_fv")
# the registry's tables of the entailer's functions of terms; those of the
# model's functions of heaps are tested in test_tables
TABLES = {name: table for name, table in syntax.TABLES.items()
          if name in vars(logic)}


def clear(node):
    """Empty the memo slots of node and of all its sub-terms, and every
    table of the registry, as if each node were made just now."""
    for n in _walk(node):
        for s in MEMOS:
            if hasattr(n, s):
                object.__delattr__(n, s)
    for table in syntax.TABLES.values():
        table.clear()


def filled(node):
    """The memo slots set on node or on any of its sub-terms, and the
    names of the logic tables holding an answer for one of them: keyed by
    its serial, or by a tuple of serials (and names) that holds it."""
    nodes = list(_walk(node))
    ids = {n._id for n in nodes}
    return {s for n in nodes for s in MEMOS if hasattr(n, s)} | {
        name for name, table in TABLES.items()
        if any(not ids.isdisjoint(k) if type(k) is tuple else k in ids
               for k in table)}


class Forgetful(dict):
    """A table that keeps nothing, so every probe misses."""

    def __setitem__(self, key, value):
        pass


class Recording(dict):
    """A copy of a table that logs the key of every answer stored in it;
    a tabled function stores one answer each time its body runs."""

    def __init__(self, table, log):
        super().__init__(table)
        self.log = log

    def __setitem__(self, key, value):
        self.log.append(key)
        super().__setitem__(key, value)


def swap_tables(m, make):
    """Within the monkeypatch context m, rebind the module global of each
    logic table to make(table)."""
    swapped = 0
    for name, value in list(vars(logic).items()):
        if any(value is t for t in TABLES.values()):
            m.setattr(logic, name, make(value))
            swapped += 1
    assert swapped == len(TABLES)


def tabled_calls(t):
    """(name, function, arguments) of each tabled function applied to t;
    but unfold_mu to each mu sub-term of t, and _open to the body of each
    quantifier sub-term at a variable and at a literal, and to t at each
    of its free variables.  The variable b1 is bound in many terms of the
    corpus, so opening at it also renames a binder apart."""
    subterms = list(dict.fromkeys(_walk(t)))
    for name in TABLES:
        f = getattr(logic, name)
        if name == "unfold_mu":
            yield from ((name, f, (s,)) for s in subterms if type(s) is Mu)
        elif name == "_open":
            for s in subterms:
                if type(s) in (Exists, Forall):
                    for w in (Var("b1"), IntLit(3)):
                        yield name, f, (s.body, s.var, w)
            for x in sorted(free_vars(t)[0]):
                yield name, f, (t, x, Var("b1"))
        else:
            yield name, f, (t,)


# what _open computes, written out with no table
WRITTEN_OUT = {
    "_open": lambda P, x, e: substitute(P, {x: e}),
}


def reference(t, monkeypatch):
    """canon_key and free_vars of t with every cache bypassed: the free
    variable walk recurses into itself directly."""
    clear(t)
    with monkeypatch.context() as m:
        m.setattr(syntax, "_free", syntax._free_walk)
        ref = canon_reference(t), free_vars(t)
        assert not filled(t)
    return ref


def by_serial(parts):
    return sorted(parts, key=lambda p: p._id)


def canon_reference(t, venv=(), renv=()):
    """canon_key with no cache, written without the code under test:
    bound names as de Bruijn indices and binder names blanked; the parts
    of * /\\ \\/ flattened, emp dropped from *, sorted by serial and
    nested to the left, one binary node at a time."""
    k = type(t)
    if k is Var and t.name in venv:
        return Var(f"#{venv[::-1].index(t.name)}")
    if k in (Star, And, Or):
        parts = [canon_reference(p, venv, renv) for p in flat(t, k)]
        if k is Star:
            parts = [p for p in parts if p is not Emp()]
        return functools.reduce(lambda l, r: k((l, r)),
                                by_serial(parts)) if parts else Emp()
    names, rnames = binders(t)
    u = map_children(t, canon_reference, venv, renv,
                     scoped=(venv + names, renv + rnames))
    if k is RelVar and t.name in renv:
        return RelVar(f"%{renv[::-1].index(t.name)}", u.args)
    if k is Mu:
        return Mu("", ("",) * len(t.params), u.body, u.args)
    return syntax.replace(u, var="") if names else u


def binary(t):
    """A chain of * /\\ \\/ as the binary node it stands for: the node of
    all its parts but the last, and its last part."""
    init = t.parts[:-1]
    return (init[0] if len(init) == 1 else type(t)(init)), t.parts[-1]


def flat(t, k):
    if type(t) is not k:
        return [t]
    left, right = binary(t)
    return flat(left, k) + flat(right, k)


def strip_reference(a):
    """_strip_units with no cache, written without the code under test:
    emp units under * removed everywhere but inside atoms and triples,
    one binary * at a time."""
    if type(a) not in _CONNECTIVES:
        return a
    if type(a) is not Star:
        return map_children(a, strip_reference)
    left, right = map(strip_reference, binary(a))
    if type(left) is Emp:
        return right
    if type(right) is Emp:
        return left
    return Star((left, right))


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
    t = Star((p, Exists("x", p)))
    assert Star((PointsTo(IntLit(1), Var("x")),
                 Exists("x", PointsTo(IntLit(1), Var("x"))))) is t
    assert t.parts[0] is t.parts[1].body
    clear(t)
    e = Exists("", PointsTo(IntLit(1), Var("#0")))
    assert canon_key(t) is Star(tuple(by_serial([e, p])))
    # p is its own closed form, cached now; under the binder it must not
    # leak
    assert p._key is p
    assert canon_key(Exists("x", p)) is e
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


def test_tabled_functions_cached_equal_uncached(monkeypatch):
    calls = Counter()
    for t in corpus():
        refs = []
        for name, f, args in tabled_calls(t):
            with monkeypatch.context() as m:
                swap_tables(m, lambda table: Forgetful())
                ref = f(*args)
            # None is the tables' miss, never an answer
            assert ref is not None, (name, repr(args))
            if name in WRITTEN_OUT:
                assert ref == WRITTEN_OUT[name](*args), (name, repr(args))
            refs.append(ref)
            # every argument is a sub-term of t or a leaf
            clear(t)
            cold = f(*args)
            # interned answers: equal normal forms are one node
            assert cold == ref, (name, repr(args))
            assert f(*args) is cold, (name, repr(args))
            calls[name] += 1
        # all of them on one set of tables: no two keys collide
        clear(t)
        for (name, f, args), ref in zip(tabled_calls(t), refs):
            assert f(*args) == ref, (name, repr(args))
    assert set(calls) == set(TABLES)
    assert min(calls.values()) >= 4 and sum(calls.values()) > 7 * 300


# ---------------------------------------------------------------------------
# one node per term, whichever way it is made


def test_memo_slots_are_invisible():
    text = ("exists y. (mu X(p). {X(p) * p |-> y} 'skip' {emp})(y) "
            "* (emp * (1 |-> y /\\ y = 2))")
    t = parse(text, "assertion")
    # other tests may have tabled other facts of these sub-terms
    clear(t)
    for s in _walk(t):
        hash(s), canon_key(s), free_vars(s), _strip_units(s)
    assert filled(t) == set(MEMOS) | {"_strip_units"}
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
                  pickle.loads(pickle.dumps(t)), syntax.replace(t),
                  map_children(t, copy.deepcopy)):
            assert c is t, repr(t)
    t = parse("exists y. 1 |-> y * emp", "assertion")
    assert syntax.replace(t, var="z") is parse("exists z. 1 |-> y * emp",
                                               "assertion")
    assert syntax.replace(t.body, parts=(t.body.parts[0], Emp())) is Star((
        PointsTo(IntLit(1), Var("y")), Emp()))
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.var = "z"


# ---------------------------------------------------------------------------
# each fact is computed once


def counted_walks(monkeypatch):
    """Counters of the canonical-form and free-variable walks, by node: a
    canonical form is walked when the node is open under the enclosing
    binders, and counted with them, or when its closed form is not cached
    yet."""
    canon_walks, free_walks = Counter(), Counter()
    canon, free_walk = syntax._canon, syntax._free_walk

    def count_canon(ast, venv, renv):
        if venv or renv:
            fv, frv = free_vars(ast)
            if not (fv.isdisjoint(venv) and frv.isdisjoint(renv)):
                canon_walks[id(ast), venv, renv] += 1
                return canon(ast, venv, renv)
        if not hasattr(ast, "_key"):
            canon_walks[id(ast), (), ()] += 1
        return canon(ast, venv, renv)

    def count_free(ast):
        free_walks[id(ast)] += 1
        return free_walk(ast)

    monkeypatch.setattr(syntax, "_canon", count_canon)
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
        # a form under enclosing binders is not cached: it is walked once
        # per occurrence of the node, and the closed form once per node
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
    # the ones it does not reach, so every fact is already cached, and no
    # tabled function of logic runs its body
    stored = []
    with monkeypatch.context() as m:
        swap_tables(m, lambda table: Recording(table, stored))
        second = check_proof(parse_script(text))
    assert second.ok
    assert not canon_walks and not free_walks and not stored


def one_round():
    """Check proofs/ and the negative registry, as one round of the
    proof_check benchmark does."""
    for path in sorted((ROOT / "proofs").glob("*.proof")):
        assert check_proof(parse_script(path.read_text())).ok
    for name in sorted(REJECTED):
        root = parse_script(f'(rule {name} (conclude "true"))')
        assert not check_proof(root).ok


def counted_ent_calls(monkeypatch):
    """A list that gets one entry per _Entailer.ent call from now on."""
    calls = []
    ent = logic._Entailer.ent

    def counted(self, *args):
        calls.append(None)
        return ent(self, *args)

    monkeypatch.setattr(logic._Entailer, "ent", counted)
    return calls


def test_one_round_makes_a_fixed_number_of_entailer_calls(monkeypatch):
    # the tables must not change the entailer's search: one round over
    # proofs/ and the negative registry, as the proof_check benchmark
    # makes it, takes as many _Entailer.ent calls with them as without
    calls = counted_ent_calls(monkeypatch)
    one_round()
    assert len(calls) == 499


def test_one_round_opens_each_binder_once(monkeypatch):
    # from an empty table, one round runs the body of _open once per
    # distinct (term, variable, witness); the openings the round asks for
    # are served from these
    opened = []
    monkeypatch.setattr(logic, "_OPENED", Recording({}, opened))
    one_round()
    assert len(opened) == len(set(opened)) == 49


def test_iterator_frame_entailments_cancel_the_frame_first(monkeypatch):
    # both sides of the iterator proofs' frame entailments share the frame
    # F; * is monotone, so the entailer drops F before prenex opens its
    # quantifiers, and proves each in a few ent calls
    spec = importlib.util.spec_from_file_location(
        "make_iterator_proofs", ROOT / "scripts" / "make_iterator_proofs.py")
    builder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(builder)
    calls = counted_ent_calls(monkeypatch)
    for P, Q in (("1 |-> n * " + builder.F, "1 |-> _ * " + builder.F),
                 ("1 |-> n - 1 * " + builder.F, builder.PRE0)):
        calls.clear()
        assert entail_basic(parse(P, kind="assertion"),
                            parse(Q, kind="assertion"))
        assert len(calls) == 4, (P, Q)


def test_hash_is_computed_once():
    class Counted:
        """A ValueLit payload that counts how often it is hashed."""
        calls = 0

        def __hash__(self):
            Counted.calls += 1
            return 7

    v = Counted()
    t = Star((PointsTo(IntLit(1), ValueLit(v)), Exists("x", Var("x"))))
    # made once: the payload is hashed while the ValueLit is looked up,
    # kept and given its own hash, and never again
    made = Counted.calls
    assert made
    clear(t)
    first = hash(t)
    assert hash(t) == first and Counted.calls == made
    assert not filled(t)
    # the sub-terms' hashes were kept while hashing t
    assert hash(t.parts[0].value) and Counted.calls == made
    # making t again looks the ValueLit up by its payload; every other
    # node is looked up by the kept hashes of its fields
    assert Star((PointsTo(IntLit(1), ValueLit(v)),
                 Exists("x", Var("x")))) is t
    assert Counted.calls == made + 1 and hash(t) == first
    # the value is the hash of the class name and the field tuple
    assert first == hash(("Star", t.parts))


# ---------------------------------------------------------------------------
# deep terms


def test_long_sequence_does_not_exhaust_the_stack():
    text = " ; ".join(["[x] := 1"] * 400)
    prog = parse(text, "program")
    assert pretty_cmd(parse(pretty_cmd(prog), "program")) == pretty_cmd(prog)
    assert free_vars(prog) == ({"x"}, set())
    # no binder and no AC node: the chain is its own canonical node
    assert canon_key(prog) is prog
    assert equal_mod_ac(prog, parse(text, "program"))


def test_cached_forms_of_a_long_chain_take_no_memory():
    # a chain of 400 statements no other test builds; each sub-term's
    # cached form is the sub-term itself, so caching allocates nothing,
    # where a form that spelled out its sub-terms' forms would take memory
    # quadratic in the length
    prog = parse(" ; ".join(["[y] := 2"] * 400), "program")
    clear(prog)
    tracemalloc.start()
    try:
        assert canon_key(prog) is prog
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(s._key is s for s in _walk(prog))
    assert retained < 100_000


def test_star_form_ignores_which_part_was_made_first():
    for flip in (False, True):
        a, b = (Assign(Var(f"s{flip}"), IntLit(i)) for i in (1, 2))
        a, b = PointsTo(IntLit(5), a), PointsTo(IntLit(6), b)
        if flip:
            a, b = b, a
        assert (a._id < b._id) is not flip
        assert canon_key(Star((a, b))) is canon_key(Star((b, a)))
        assert canon_key(Star((Emp(), Star((b, a))))) \
            is canon_key(Star((a, b)))


DEEP_CHAINS = """
from sepstore.logic import lhs_absurd, normalize_otimes, prenex
from sepstore.syntax import IntLit, PointsTo, Star

def chain(n, tag):
    t = PointsTo(IntLit(0), IntLit(tag))
    for i in range(1, n + 1):
        t = Star((PointsTo(IntLit(i), IntLit(tag)), t))
    return t

shallow, deep = chain(490, 1), chain(900, 2)
assert normalize_otimes(shallow) is shallow
assert prenex(deep) is deep
assert lhs_absurd(deep) is False
"""


def test_tabled_functions_on_deep_chains_do_not_exhaust_the_stack():
    # a fresh process, whose stack holds none of the test runner's frames,
    # and freshly built chains, which no table has seen: normalize_otimes
    # recurses two frames per `*` (through map_children), prenex and
    # lhs_absurd one, so a table probe must add none
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", DEEP_CHAINS],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr[-2000:]


def test_equal_long_sequences_are_one_object():
    # `==` is identity and does not recurse; the generated dataclass `==`
    # stopped at ~340 statements
    text = " ; ".join(f"[x] := {i % 7}" for i in range(800))
    p = parse(text, "program")
    assert parse(text, "program") is p
    assert parse(pretty_cmd(p), "program") is p
    assert p == parse(text, "program")
    assert hash(p) == hash(("Seq", p.cmds))
