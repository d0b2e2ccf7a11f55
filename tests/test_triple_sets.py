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

A straight-line code is judged without a run where its digit maps
(`Tester._digit_maps`) exist: every command of up to three `skip`,
update and `free` statements over the fuzz addresses and one outside
both pools, storing a pool integer, 7 or a quoted `skip`, goes through
the same comparison, and each preimage of a raised set under the maps
is checked against `run_codeval`, heap by heap.
"""

import dataclasses
import itertools
import random
import time

import pytest

from sepstore.config import default_config, load_config
from sepstore.fuzz import ADDRS, INTS, fuzz_config
from sepstore.grammar import parse, pretty_cmd
from sepstore.interp import (
    EMPTY_ENV, Done, Fault, OutOfFuel, eval_expr, run_codeval, tag_raises,
    truncate,
)
from sepstore.semantics import Fail, Pass, Tester, Witness, close_assertion
from sepstore.syntax import (
    Assign, Free, IntLit, Quote, Seq, Skip, Triple, free_vars,
)
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


# the fuzz addresses and one outside both pools; the fuzz integers, an
# integer outside both pools and a quoted skip, which is outside values()
OUTSIDE = (IntLit(7), Quote(Skip()))
STATEMENTS = (Skip(),) + tuple(
    Assign(IntLit(a), v) for a in ADDRS + (4,)
    for v in tuple(map(IntLit, INTS)) + OUTSIDE) \
    + tuple(Free(IntLit(a)) for a in ADDRS + (4,))
# per first statement, every code of up to three statements
CHAINS = {first: tuple(Quote(Seq((first,) + rest) if rest else first)
                       for size in (0, 1, 2)
                       for rest in itertools.product(STATEMENTS, repeat=size))
          for first in STATEMENTS}
STRAIGHT_LINE = tuple(e for codes in CHAINS.values() for e in codes)
UP_TO_TWO = tuple(e for e in STRAIGHT_LINE
                  if type(e.body) is not Seq or len(e.body.cmds) == 2)
STRAIGHT_PRE = parse("1 |-> _ * 2 |-> _", "assertion")
STRAIGHT_POST = parse("1 |-> 0 * 2 |-> _", "assertion")


@UNIVERSES
@pytest.mark.parametrize("first", STATEMENTS, ids=pretty_cmd)
def test_straight_line_codes_judge_as_the_per_heap_sampler(cfg, step,
                                                           first):
    start = time.perf_counter()
    codes = CHAINS[first]
    t = compare(cfg, step, [Triple(STRAIGHT_PRE, e, STRAIGHT_POST)
                            for e in codes])
    # a code that stores no 7 and no quote has digit maps, and ran on its
    # witness heap alone
    for e in codes:
        code = eval_expr(e, EMPTY_ENV)
        stores = {getattr(c, "source", None)
                  for c in (e.body.cmds if type(e.body) is Seq else [e.body])}
        assert (t._maps[code._id] is None) == bool(stores & set(OUTSIDE))
        if t._maps[code._id] is not None:
            assert len(t._runs.get(code._id, ())) <= 1
    assert time.perf_counter() - start < 2


def test_a_chain_of_more_semicolons_than_fuel_is_run():
    """With fuel 1, each three-statement code runs out of fuel on every
    non-Bot heap, so it has no digit maps."""
    cfg = dataclasses.replace(fuzz_config(), fuel=1)
    codes = STRAIGHT_LINE[::7]
    t = compare(cfg, 1, [Triple(STRAIGHT_PRE, e, STRAIGHT_POST)
                         for e in codes])
    assert OutOfFuel in {type(out) for out in outcomes(t)}
    for e in codes:
        if type(e.body) is Seq and len(e.body.cmds) == 3:
            assert t._maps[eval_expr(e, EMPTY_ENV)._id] is None


@UNIVERSES
def test_preimages_are_the_heaps_the_code_runs_into_a_set(cfg, step):
    """For every straight-line code of up to two statements, at each
    level's raised set of a few posts and random sets."""
    t = seeded_tester(cfg, step)
    index = t._universe_index()
    checked = t._order[::step]
    rng = random.Random(0)
    sets = [t.denotation(parse(text, "assertion"), EMPTY_ENV)
            for text in ("1 |-> 0 * 2 |-> _", "emp", "true", "false")]
    sets += [sum(1 << b for b in range(index.full.bit_length())
                 if rng.random() < 0.3) for _ in range(3)]
    targets = [r for s in sets for r in index.raised(s)]
    for e in UP_TO_TWO:
        code = eval_expr(e, EMPTY_ENV)
        maps = t._digit_maps(code)
        if maps is None:
            continue
        images = {}
        for b in checked:
            out = run_codeval(code, t._heap(b), cfg.fuel)
            images[b] = index.bit(out.heap) if type(out) is Done else None
            assert type(out) is Done or type(out) is Fault
            assert type(out) is Fault or images[b] is not None
        for r in targets:
            got = index.preimage(r, maps)
            for b in checked:
                want = images[b] is not None and r >> images[b] & 1
                assert (got >> b & 1) == want, (e, b)
