"""The set judgement of a triple against the per-heap sampler.

For a static pre, post, world and frame, and level_k <= tag_max,
`Tester._sem_triple_at` judges a sample from the run table and the raised
set of the post; `Tester._sample` stays the per-heap definition.  For the
triples of `test_sampler_pin.py`, and for codes whose results leave the
universe, that fault, that run out of fuel or whose result lies in the
post only once truncated, a fresh Tester's `_sem_triple_at` must give the
verdict, samples, inconclusive count, witness and counter deltas of a loop
that judges every sample with `_sample`, on every heap of the fuzz
universe and on every 7th heap (in universe order) of the default one.
The heaps visited are narrowed by seeding the Tester's table of the heaps
up to each rank, which both loops read, so the real sampler loop runs.
The raised sets themselves are checked against `tag_raises` and
`truncate`, heap by heap, on the same heaps.
"""

import random
import time

import pytest

from sepstore.config import default_config, load_config
from sepstore.fuzz import fuzz_config
from sepstore.grammar import parse
from sepstore.interp import (
    EMPTY_ENV, Done, Fault, OutOfFuel, eval_expr, tag_raises, truncate,
)
from sepstore.semantics import Fail, Pass, Tester, Witness, close_assertion
from sepstore.syntax import free_vars
from test_sampler_pin import GOALS, K_ABOVE_TAG_MAX

PINNED = tuple((parse(text, "assertion"), config) for _, config, text in GOALS
               if text.startswith("{"))
LEAVING = ("{1 |-> _} '[1] := 7' {1 |-> 7}",
           "{true} 'let x = new 0 in skip' {true}")
FAULTING = "{true} 'free(2)' {emp}"
# a stored skip of tag 0 runs out of fuel
INCONCLUSIVE = "{2 |-> 'skip'} 'eval [2]' {2 |-> 'skip'}"
# with y a command of a higher tag than x, the result lies in the post only
# once truncated below the level
TRUNCATED = "{1 |-> x} '[1] := y' {1 |-> x}"
EXTRA = tuple(parse(text, "assertion")
              for text in LEAVING + (FAULTING, INCONCLUSIVE, TRUNCATED))
# (config, step): every heap of the fuzz universe, every 7th of the default
UNIVERSES = pytest.mark.parametrize(
    "cfg, step", [(fuzz_config(), 1), (default_config(), 7)],
    ids=["fuzz-every-heap", "default-every-7th"])


def seeded_tester(cfg, step):
    """A fresh Tester whose heaps up to each rank are every step-th heap
    of its universe order (Bot first)."""
    t = Tester(cfg)
    t._universe_index()
    for n in range(t.cfg.level_k + 1):
        t._by_rank[n] = [b for b, r in
                         zip(t._order[::step], t._ranks[::step]) if r <= n]
    return t


def summary(verdict):
    if isinstance(verdict, Fail):
        return "fail", verdict.witness.to_json()
    return "pass", verdict.samples, verdict.inconclusive


def per_heap(t, w, pre, code, post, env):
    """_sem_triple_at with every sample judged by _sample, counting each
    sample on the Tester as it does."""
    pre_c, post_c = close_assertion(pre, env), close_assertion(post, env)
    samples = inconclusive = 0
    for frame in t.cfg.frame_pool:
        for n in range(t.cfg.level_k + 1):
            for b in t._bits_up_to(n):
                g = t._heap(b)
                outcome = t._sample(code, g, n, w, frame, pre_c, post_c)
                if outcome is None:
                    continue
                samples += 1
                t.samples += 1
                if outcome[0] == "out-of-fuel":
                    inconclusive += 1
                    t.inconclusive += 1
                elif outcome[0] != "ok":
                    return Fail(Witness("triple", w, frame, g, *outcome,
                                        env, n))
    return Pass(samples, inconclusive)


def judged(t, judge, *args):
    """The verdict and the Tester's counter deltas."""
    before = t.samples, t.inconclusive
    verdict = judge(*args)
    return verdict, (t.samples - before[0], t.inconclusive - before[1])


def compare(cfg, step, triples):
    """Judge each triple in each world and environment both ways; the
    Tester that judged from sets, for the caller to inspect."""
    sets, reference = seeded_tester(cfg, step), seeded_tester(cfg, step)
    k = cfg.level_k
    for P in triples:
        for env in sets._env_samples(free_vars(P)[0]):
            code = eval_expr(P.code, env)
            for w in cfg.world_pool:
                got, deltas = judged(sets, sets._sem_triple_at, k, w, P.pre,
                                     code, P.post, env)
                want, want_deltas = judged(reference, per_heap, reference,
                                           w, P.pre, code, P.post, env)
                assert summary(got) == summary(want), (P, env)
                assert deltas == want_deltas, (P, env)
                if isinstance(got, Fail):
                    assert sets.replay(got.witness, "triple", P.pre,
                                       (P.code, P.post))
    return sets


def outcomes(t):
    return [out for row in t._runs.values() for out in row.values()]


@UNIVERSES
def test_set_judgement_equals_the_per_heap_sampler(cfg, step):
    start = time.perf_counter()
    t = compare(cfg, step, tuple(P for P, _ in PINNED) + EXTRA)
    # the raised sets were read, and every kind of run that they do not
    # answer was met
    assert t._raised_sets
    assert {Done, Fault, OutOfFuel} <= {type(out) for out in outcomes(t)}
    assert time.perf_counter() - start < 2


def test_k_above_tag_max_is_judged_per_heap():
    cfg = load_config(K_ABOVE_TAG_MAX)
    t = compare(cfg, 7, [P for P, config in PINNED
                         if config == K_ABOVE_TAG_MAX])
    assert t._runs and not t._raised_sets


@UNIVERSES
def test_raised_sets_hold_the_heaps_with_a_raise_in_the_set(cfg, step):
    """Per level, on sparse random sets (denotations are closed under
    lowering tags, so every raise of theirs adds nothing)."""
    t = Tester(cfg)
    index = t._universe_index()
    heaps = t.universe()
    rng = random.Random(0)
    for _ in range(4):
        s = sum(1 << b for b in range(len(heaps)) if rng.random() < 0.1)
        raised = index.raised(s)
        for n in range(len(raised) + 1):
            got = raised[min(n, len(raised) - 1)]
            for h in heaps[::step]:
                want = any(s >> index.bit(g) & 1 for g in
                           tag_raises(truncate(n, h), cfg.tag_max))
                assert (got >> index.bit(h) & 1 == 1) == want, (n, h)
