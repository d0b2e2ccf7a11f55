"""The paper's laws of * as identities of denotations in the model.

`*` is commutative, associative and monotone, with unit emp (written I in
the paper).  Each law is checked as an equation or inclusion between
denotations, [[P]] being the set of heaps of the fuzz universe that
`member` puts in P at a world, for triples (P, Q, R) drawn with a fixed
seed from the 144 closed assertions of golden_semantics.jsonl, at each of
its worlds.

The bottom law (bottom is in every denotation) and the congruence of <>
(equal denotations give equal denotations under <>) do not hold today,
through Tester._member_diamond, and are left out.
"""

import json
import random

from sepstore.fuzz import fuzz_config
from sepstore.grammar import parse, pretty
from sepstore.interp import EMPTY_ENV
from sepstore.semantics import Tester
from sepstore.syntax import Emp, Or, Star
from test_semantics_golden import CORPUS, WORLDS

TRIPLES = 300


def closed_terms():
    records = map(json.loads, CORPUS.read_text().splitlines())
    return [parse(r["term"], "assertion") for r in records if "term" in r]


def test_star_is_commutative_associative_monotone_with_unit_emp():
    tester = Tester(fuzz_config())
    heaps = tester.universe()
    terms = closed_terms()
    assert len(terms) == 144
    rng = random.Random(0)
    triples = [tuple(rng.choice(terms) for _ in range(3))
               for _ in range(TRIPLES)]
    for text in WORLDS:
        w = parse(text, "assertion")

        def den(P):
            return frozenset(h for h in heaps
                             if tester.member(P, EMPTY_ENV, w, h))

        for P, Q, R in triples:
            where = (text, pretty(P), pretty(Q), pretty(R))
            pq = den(Star((P, Q)))
            assert pq == den(Star((Q, P))), where
            assert den(Star((Star((P, Q)), R))) \
                == den(Star((P, Star((Q, R))))), where
            assert den(Star((P, Emp()))) == den(P) == den(Star((Emp(), P))), \
                where
            assert pq <= den(Star((Or((P, R)), Or((Q, R))))), where
