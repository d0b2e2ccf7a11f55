"""Exact replay of the structural traversals against recorded results.

tests/data/golden_traversal.jsonl holds one JSON object per term, in the
order `terms()` yields them:

    term        repr of the term
    free_vars   sorted free variables and free relation variables
    subst       repr of `substitute` under a map that forces binder
                renaming: each free variable x becomes x + b1 + ... + bn
                over every bound name bi of the term, and each free
                relation variable becomes an assertion over all of them
    unfold      repr of `unfold_mu` of each mu sub-term, in pre-order
    roundtrip   repr of parse(pretty(term))
    canon       class labels of `canon_key` of the term, of its subst
                result and of each unfold result: a key's label is the
                ordinal of its first appearance over the whole walk of
                `terms()`, so two labels are equal exactly when the keys
                are one
    classify    `classify` of the term (assertions only, else null)
    contractive `contractive_in` of the term in each of its free relation
                variables and in X, and of each mu sub-term's body in its
                own relation variable, in pre-order (assertions only,
                else null)

The terms are term_corpus(seed=7, n=200), every hypothesis and goal
stated in proofs/, and a few hand-written terms with parameterised mu and
relation variables applied to arguments.  Results compare with `==` on
their repr, fresh names included, not up to alpha.

Regenerate (only when a change of the recorded results is intended):

    PYTHONPATH=src:tests python tests/test_traversal_golden.py --record
"""

import json
import sys
from pathlib import Path

from conftest import term_corpus
from sepstore.grammar import parse, pretty
from sepstore.logic import parse_script, unfold_mu
from sepstore.syntax import (
    BinOp, Eq, Exists, Forall, IntLit, Interned, LetDeref, LetNew, Mu, RelVar,
    Var, canon_key, classify, contractive_in, free_vars, substitute,
)

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "golden_traversal.jsonl"

EXTRA = [
    ("assertion", "(mu X(p). {X(p) * p |-> 0} 'skip' {emp})(y)"),
    ("assertion", "mu X(p, q). {X(q, p)} 'free(p)' {p |-> q}"),
    ("assertion", "forall p. (mu X(p). {X(p + 1)} 'skip' {p |-> z})(p)"),
    ("assertion", "exists y. Y(y, x) * {Y(x, y)} 'skip' {emp}"),
    ("assertion", "forall x. exists x. x = y /\\ (exists y. y |-> x)"),
    ("assertion", "mu X. {X (*) (exists p. p |-> q)} 'eval [q]' {X}"),
    ("program", "let y = new x, y in let x = [y] in free(x)"),
    ("program", "let x = [x] in (let x = new x in [x] := y) ; eval [x]"),
]


def _fields(cls):
    """The fields of an interned class, as its source declares them."""
    return vars(cls).get("__annotations__", {})


def _children(node):
    """Every interned value directly inside node, tuple fields included
    (written here without the code under test)."""
    for name in _fields(type(node)):
        value = getattr(node, name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, Interned):
                yield v


def _walk(node):
    yield node
    for c in _children(node):
        yield from _walk(c)


def _bound_names(t):
    names = set()
    for n in _walk(t):
        if type(n) in (LetDeref, LetNew, Forall, Exists):
            names.add(n.var)
        elif type(n) is Mu:
            names.update(n.params)
    return sorted(names)


def _rel_arities(t):
    return {n.name: len(n.args) for n in _walk(t) if type(n) is RelVar}


def _sum(names, base):
    for b in names:
        base = BinOp("+", base, Var(b))
    return base


def renaming_maps(t):
    fv, frv = free_vars(t)
    bound = _bound_names(t)
    var_map = {x: _sum(bound, Var(x)) for x in sorted(fv)}
    arity = _rel_arities(t)
    rel_map = {}
    for r in sorted(frv):
        params = tuple(f"r{i}" for i in range(arity.get(r, 0)))
        body = Eq(_sum(bound + list(params), IntLit(0)), IntLit(0))
        rel_map[r] = (params, body)
    return var_map, rel_map


def terms():
    yield from term_corpus(seed=7, n=200)
    seen = set()
    for path in sorted((ROOT / "proofs").glob("*.proof")):
        stack = [parse_script(path.read_text())]
        while stack:
            node = stack.pop(0)
            for a in node.conclusion.hyps + (node.conclusion.goal,):
                if repr(a) not in seen:
                    seen.add(repr(a))
                    yield "assertion", a
            stack.extend(node.premises)
    for kind, text in EXTRA:
        yield kind, parse(text, kind)


def record(kind, t, labels):
    """The recorded results of t; labels maps each canonical key met so
    far in the walk to its class label."""
    fv, frv = free_vars(t)
    var_map, rel_map = renaming_maps(t)
    s = substitute(t, var_map, rel_map)
    mus = [m for m in _walk(t) if type(m) is Mu]
    unfolded = list(map(unfold_mu, mus))
    asn = kind == "assertion"
    return {
        "term": repr(t),
        "free_vars": [sorted(fv), sorted(frv)],
        "subst": repr(s),
        "unfold": [repr(u) for u in unfolded],
        "roundtrip": repr(parse(pretty(t), kind)),
        "canon": [labels.setdefault(canon_key(x), len(labels))
                  for x in [t, s, *unfolded]],
        "classify": classify(t) if asn else None,
        "contractive": {
            "term": {X: contractive_in(t, X) for X in sorted(frv | {"X"})},
            "mu_bodies": [contractive_in(m.body, m.relvar) for m in mus],
        } if asn else None,
    }


def test_traversals_match_recorded_results():
    recorded = [json.loads(line)
                for line in CORPUS.read_text().splitlines()]
    labels = {}
    corpus = list(terms())
    # the walk reaches below the roots, so the results it feeds are checked
    assert sum(1 for _, t in corpus for _ in _walk(t)) > 5 * len(corpus)
    replayed = [record(kind, t, labels) for kind, t in corpus]
    assert len(replayed) == len(recorded) > 200
    for i, (old, new) in enumerate(zip(recorded, replayed)):
        assert new == old, f"term {i}: {old['term']}"


def test_corpus_forces_renaming_and_unfolding():
    recorded = [json.loads(line)
                for line in CORPUS.read_text().splitlines()]
    assert sum(1 for r in recorded if r["unfold"]) >= 20
    # a renamed binder shows up as a fresh `_<n>` suffix
    assert sum(1 for r in recorded if "_1'" in r["subst"]) >= 20


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    labels = {}
    with open(CORPUS, "w") as fh:
        for kind, t in terms():
            fh.write(json.dumps(record(kind, t, labels)) + "\n")
