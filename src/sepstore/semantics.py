"""Finite-approximation semantic model.

Worlds are closed assertions; a world's membership function is the
denotation of its invariant, and worlds compose by invariant combination
(`syntax.circ`), the syntactic image of its defining equation.  The
membership evaluator follows the assertion semantics clause by clause over
a bounded universe of heaps, values, worlds and frames described by a
TestConfig.  On top of it sit a bounded semantic-triple tester and an
entailment tester: a Fail verdict is a genuine refutation within the
model, a Pass means no counterexample exists in the configured universe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from .grammar import pretty
from .interp import (
    BOT, EMPTY_ENV, EMPTY_HEAP, INF, CodeVal, Env, Fault, Heap, HeapValue,
    IntVal, OutOfFuel, TypeFault, UnboundVariable, eval_expr, format_heap,
    format_value, rank, run_codeval, tag_raises, truncate, value_leq,
)
from .syntax import (
    And, Diamond, Emp, Eq, Exists, FalseA, Forall, Implies, Leq, Mu, Or,
    PointsTo, PSEUDO_PURE, PURE, RelVar, Skip, Star, Tensor, Triple, TrueA,
    TABLES, ValueLit, circ, classify, free_vars, halves, substitute, unfold,
)


class UniverseOverflow(Exception):
    pass


class UniverseTooLarge(Exception):
    """The configured heap universe has more than MAX_UNIVERSE_HEAPS heaps,
    or a goal's environments number more than the config's env_cap."""


# The most heaps Tester.universe() enumerates.  The default CLI universe
# has 2,198 heaps and the fuzz universe 37; six addresses over the default
# values give ~4.8M, on which `sepstore test` ran for over a minute without
# a verdict, so a config that large is refused before any work is done.
MAX_UNIVERSE_HEAPS = 100_000


class CacheReentry(Exception):
    """A cached evaluation asked for its own result while computing it."""


_IN_PROGRESS = object()


def _memo(cache, key, compute, *args):
    """cache[key], computed by compute(*args) on a miss.  While it is being
    computed the entry is a sentinel, and a nested request for the same
    key raises CacheReentry instead of answering from a guess."""
    hit = cache.get(key)
    if hit is not None:
        if hit is _IN_PROGRESS:
            raise CacheReentry(f"{compute.__name__} asked for the result "
                               "it is computing")
        return hit
    cache[key] = _IN_PROGRESS
    try:
        result = compute(*args)
    except BaseException:
        del cache[key]
        raise
    cache[key] = result
    return result


@dataclass(frozen=True)
class TestConfig:
    addr_pool: tuple = (1, 2, 3)
    int_pool: tuple = (-1, 0, 1, 2)
    code_pool: tuple = ()       # closed Commands
    tag_max: int = 3
    level_k: int = 3
    world_pool: tuple = (Emp(),)    # closed Assertions, as worlds
    frame_pool: tuple = (Emp(), TrueA())
    fuel: int = 10000
    env_cap: int = 256

    def __post_init__(self):
        if Emp() not in self.world_pool:
            object.__setattr__(self, "world_pool",
                               (Emp(),) + tuple(self.world_pool))
        frames = tuple(self.frame_pool)
        for needed in (Emp(), TrueA()):
            if needed not in frames:
                frames += (needed,)
        object.__setattr__(self, "frame_pool", frames)


@dataclass(frozen=True)
class Witness:
    kind: str                 # "triple" or "entailment"
    world: object             # closed Assertion
    frame: Optional[object]   # Assertion or None
    heap: Heap
    outcome: str
    reason: str
    env: Env = EMPTY_ENV
    level: Optional[int] = None

    def to_json(self) -> dict:
        data = {
            "kind": self.kind,
            "world": pretty(self.world),
            "heap": format_heap(self.heap),
            "outcome": self.outcome,
            "reason": self.reason,
        }
        if self.frame is not None:
            data["frame"] = pretty(self.frame)
        if self.level is not None:
            data["level"] = self.level
        if self.env.items:
            data["env"] = {k: format_value(v) for k, v in self.env.items}
        return data


@dataclass(frozen=True)
class Pass:
    samples: int = 0
    inconclusive: int = 0


@dataclass(frozen=True)
class Fail:
    witness: Witness


Verdict = Union[Pass, Fail]


def close_assertion(P, env: Env):
    """Close an assertion over an environment by substituting runtime
    values."""
    if not env.items:
        return P
    return substitute(P, {k: ValueLit(v) for k, v in env.items})


# tables of the registry syntax.TABLES (syntax docstring); no function
# tabled here reaches a Tester table, so none can re-enter one
_SPLITS = TABLES["splits"] = {}
_TRUNCATIONS = TABLES["truncations"] = {}
_MU_APPROXIMATIONS = TABLES["mu_approximation"] = {}
# heap serial -> (code, _UniverseIndex), for each non-Bot heap of every
# universe a Tester has built; the last universe built holds the entry
_UNIVERSE_INDEX = TABLES["universe_index"] = {}


class _UniverseIndex:
    """The mixed-radix numbering of one heap universe.  A non-Bot heap's
    code has one digit per address of the sorted pool, the first address
    least significant: 0 where the heap is unmapped, else 1 + the index of
    its value in values().  by_code[code] is the interned heap; levels[n]
    maps a digit to the digit of its value truncated at level n >= 1, and
    ranks[d] is the rank of a heap whose highest-ranked digit is d."""

    __slots__ = ("by_code", "radix", "places", "ranks", "levels")

    def __init__(self, vals, addresses):
        self.radix = 1 + len(vals)
        self.places = tuple(self.radix ** i for i in range(addresses))
        self.by_code = [None] * self.radix ** addresses
        self.ranks = (1,) + tuple(1 + v.tag if isinstance(v, CodeVal)
                                  else 1 for v in vals)
        first = {}
        for d, v in enumerate(vals, 1):
            first.setdefault(v, d)
        # level n caps a stored closure's tag at n - 1 (interp.truncate)
        self.levels = [None] + [
            (0,) + tuple(first[CodeVal(v.body, v.captured, n - 1)]
                         if isinstance(v, CodeVal) and v.tag > n - 1 else d
                         for d, v in enumerate(vals, 1))
            for n in range(1, max(self.ranks) + 1)]

    def digits(self, code) -> list:
        out = []
        for _ in self.places:
            code, d = divmod(code, self.radix)
            out.append(d)
        return out

    def splits(self, code) -> list:
        """The sub-heap of each mask over the mapped addresses, in mask
        order: subset sums of the nonzero digits, doubled up bit by bit."""
        sums = [0]
        for d, place in zip(self.digits(code), self.places):
            if d:
                term = d * place
                sums += [s + term for s in sums]
        return [self.by_code[s] for s in sums]

    def truncations(self, code) -> tuple:
        digits = self.digits(code)
        top = max((self.ranks[d] for d in digits), default=1)
        return (BOT,) + tuple(
            self.by_code[sum(level[d] * place
                             for d, place in zip(digits, self.places))]
            for level in self.levels[1:top + 1])


def splits(h: Heap) -> tuple:
    """Every pair (h1, h2) with h = h1 * h2, h1 holding the cells picked by
    the bits of a mask counted up from 0; Bot splits only into Bot and
    Bot.  A universe heap's sub-heaps come from its index entry, any
    other heap's are built cell by cell."""
    out = _SPLITS.get(h._id)
    if out is not None:
        return out
    entry = _UNIVERSE_INDEX.get(h._id)
    if entry is not None:
        sub = entry[1].splits(entry[0])
    elif h.is_bot:
        sub = [h]
    else:
        cells = h.cells
        sub = [Heap(tuple(c for i, c in enumerate(cells) if mask >> i & 1))
               for mask in range(1 << len(cells))]
    # the complement of mask m, full ^ m = full - m, names the other half
    # of the same split
    out = _SPLITS[h._id] = tuple(zip(sub, reversed(sub)))
    return out


def _finite_rank(h: Heap, what: str) -> int:
    r = rank(h)
    if r == INF:
        raise UniverseOverflow(f"{what} on a heap of infinite rank")
    return int(r)


def truncations(h: Heap, what: str) -> tuple:
    """truncate(n, h) for n = 0 .. rank(h); a heap of infinite rank raises
    UniverseOverflow about `what`."""
    out = _TRUNCATIONS.get(h._id)
    if out is not None:
        return out
    entry = _UNIVERSE_INDEX.get(h._id)
    if entry is not None:
        out = entry[1].truncations(entry[0])
    else:
        out = tuple(truncate(n, h)
                    for n in range(_finite_rank(h, what) + 1))
    _TRUNCATIONS[h._id] = out
    return out


class Tester:
    """Bounded membership evaluator and triple/entailment tester.

    It holds the tables whose answers depend on its configuration:
    membership, the _member3 rows, triples, the heaps up to a rank, tag
    raises and quantifier bindings (syntax docstring, home 3).  Each goes
    through _memo and is keyed by serials (`_id`), never by the objects
    themselves: an int key hashes in C, where a term or value would hash
    through a Python `__hash__`.  The member cache has one row per
    (P, env, w), a dict from heap serial to answer, filled on demand; so
    has the _member3 table, per (P, w, frame).  `member` answers a hit
    from one probe of its row, and only a miss goes through _memo.

    universe() enumerates the heaps in a fixed order and numbers them as
    it goes: each non-Bot heap's mixed-radix code goes into the registry's
    universe index (syntax docstring, home 2), from which splits and
    truncations answer universe heaps, and its rank is read off the same
    digits."""

    def __init__(self, cfg: TestConfig):
        self.cfg = cfg
        self._member_cache: dict = {}   # (P, env, w) -> {h: member(..., h)}
        self._member3_table: dict = {}  # (P, w, frame) -> {g: _member3(...)}
        self._raises: dict = {}         # h -> tag_raises(h, ...)
        self._bindings: dict = {}       # (env, x) -> env.bind(x, d) per value
        self._triple_cache: dict = {}
        self._universe: Optional[list] = None
        self._ranks: list = []          # rank of each universe heap
        self._by_rank: dict = {}
        self._vals = tuple(IntVal(n) for n in sorted(cfg.int_pool)) \
            + tuple(CodeVal(c, EMPTY_ENV, t) for c in cfg.code_pool
                    for t in range(cfg.tag_max + 1))
        self.inconclusive = 0
        self.samples = 0

    def values(self) -> tuple:
        """The heap values: the integers, then each stored command at every
        tag up to tag_max."""
        return self._vals

    # --- heap universe

    def universe(self) -> list:
        if self._universe is None:
            vals = self.values()
            # BOT, then every partial map from addr_pool into vals
            count = 1 + (1 + len(vals)) ** len(self.cfg.addr_pool)
            if count > MAX_UNIVERSE_HEAPS:
                raise UniverseTooLarge(
                    f"the heap universe has {count:,} heaps, more than "
                    f"{MAX_UNIVERSE_HEAPS:,}; use fewer addresses or values")
            addrs = sorted(self.cfg.addr_pool)
            index = _UniverseIndex(vals, len(addrs))
            mapped = range(1, index.radix)
            heaps, codes, ranks = [BOT, EMPTY_HEAP], [0], [0, 1]
            for size in range(1, len(addrs) + 1):
                for dom in itertools.combinations(range(len(addrs)), size):
                    # the cells, code and rank of every map on dom, in the
                    # order of itertools.product over vals
                    cells, code, top = [()], [0], [1]
                    for i in dom:
                        a, place = addrs[i], index.places[i]
                        cells = [c + ((a, v),) for c in cells for v in vals]
                        code = [c + d * place for c in code for d in mapped]
                        top = [max(r, index.ranks[d])
                               for r in top for d in mapped]
                    heaps += map(Heap, cells)
                    codes += code
                    ranks += top
            for h, code in zip(heaps[1:], codes):
                index.by_code[code] = h
                _UNIVERSE_INDEX[h._id] = (code, index)
            self._ranks = ranks
            self._universe = heaps
        return self._universe

    def universe_up_to_rank(self, n) -> list:
        return _memo(self._by_rank, n, self._up_to_rank, n)

    def _up_to_rank(self, n) -> list:
        """The heaps of rank at most n, in universe order, by the ranks
        taken once when the universe was built."""
        heaps = self.universe()
        return [h for h, r in zip(heaps, self._ranks) if r <= n]

    def raises(self, h: Heap) -> list:
        """tag_raises(h) up to the larger of tag_max and level_k, computed
        once per heap."""
        return _memo(self._raises, h._id, tag_raises, h,
                     max(self.cfg.tag_max, self.cfg.level_k))

    def bindings(self, env: Env, x: str) -> tuple:
        """env.bind(x, d) for each d in values(), computed once."""
        return _memo(self._bindings, (env._id, x), self._bind_values, env, x)

    def _bind_values(self, env, x) -> tuple:
        return tuple(env.bind(x, d) for d in self.values())

    # --- membership

    def member(self, P, env: Env, w, h: Heap) -> bool:
        """h in [[P]]env at the world generated by the closed assertion
        w."""
        key = (P._id, env._id, w._id)
        row = self._member_cache.get(key)
        if row is None:
            row = self._member_cache[key] = {}
        # a hit is answered from this one probe; a miss, or an entry still
        # in progress, goes through _memo, which computes it or raises
        # CacheReentry (contractiveness makes a genuine cycle impossible)
        hit = row.get(h._id)
        if hit is not None and hit is not _IN_PROGRESS:
            return hit
        return _memo(row, h._id, self._member, P, env, w, h)

    def _member(self, P, env, w, h) -> bool:
        t = type(P)
        if t is FalseA:
            return h.is_bot
        if t is TrueA:
            return True
        if t is Emp:
            return h.is_bot or h.cells == ()
        if t is Eq or t is Leq:
            if h.is_bot:
                return True
            try:
                a = eval_expr(P.left, env)
                b = eval_expr(P.right, env)
            except (TypeFault, UnboundVariable):
                return False
            if t is Eq:
                return a == b
            return isinstance(a, IntVal) and isinstance(b, IntVal) \
                and a.n <= b.n
        if t is PointsTo:
            if h.is_bot:
                return True
            try:
                a = eval_expr(P.addr, env)
                v = eval_expr(P.value, env)
            except (TypeFault, UnboundVariable):
                return False
            if not isinstance(a, IntVal) or a.n < 1 or len(h.cells) != 1:
                return False
            addr, cell = h.cells[0]
            return addr == a.n and value_leq(cell, v)
        if t is And:
            for p in P.parts:
                if not self.member(p, env, w, h):
                    return False
            return True
        if t is Or:
            for p in P.parts:
                if self.member(p, env, w, h):
                    return True
            return False
        if t is Implies:
            for hn in truncations(h, "implication"):
                if self.member(P.left, env, w, hn) \
                        and not self.member(P.right, env, w, hn):
                    return False
            return True
        if t is Forall:
            return all(self.member(P.body, e, w, h)
                       for e in self.bindings(env, P.var))
        if t is Exists:
            envs = self.bindings(env, P.var)
            for hn in reversed(truncations(h, "existential")):
                if not any(self.member(P.body, e, w, hn) for e in envs):
                    return False
            return True
        if t is Star:
            left, right = halves(P)
            return any(self.member(left, env, w, h1)
                       and self.member(right, env, w, h2)
                       for h1, h2 in splits(h))
        if t is Triple:
            r = _finite_rank(h, "triple")
            if r == 0:
                return True
            try:
                code = eval_expr(P.code, env)
            except (TypeFault, UnboundVariable):
                return False
            if not isinstance(code, CodeVal):
                return False
            verdict = self.sem_triple_at(r - 1, w, P.pre, code, P.post, env)
            return isinstance(verdict, Pass)
        if t is Tensor:
            return self.member(P.left, env,
                               circ(close_assertion(P.right, env), w), h)
        if t is RelVar:
            raise UnboundVariable(f"relation variable {P.name}")
        if t is Mu:
            unfolded = mu_approximation(P, _finite_rank(h, "mu") + 1)
            return self.member(unfolded, env, w, h)
        if t is Diamond:
            return self._member_diamond(P.body, env, w, h)
        raise TypeError(f"not an assertion: {P!r}")

    def _member_diamond(self, body, env, w, h) -> bool:
        k = rank(h)
        if k == INF:
            return self.member(body, env, w, h)
        k = int(k)
        if classify(body) in (PURE, PSEUDO_PURE):
            # the body's truth depends only on the rank, so "one level up"
            # is evaluated on a representative heap of rank k+1; the
            # projection-witness search below would be empty on heaps
            # without top-tag code, belying the level-shift reading
            rep = Heap(((1, CodeVal(Skip(), EMPTY_ENV, k)),))
            return self.member(body, env, w, rep)
        if h.is_bot:
            # any rank-1 heap projects to Bot at level 0
            return any(self.member(body, env, w, g)
                       for g in self.universe_up_to_rank(1) if not g.is_bot)
        raisable = [i for i, (_, v) in enumerate(h.cells)
                    if isinstance(v, CodeVal) and v.tag == k - 1]
        if not raisable:
            return False
        cells = list(h.cells)
        for size in range(1, len(raisable) + 1):
            for chosen in itertools.combinations(raisable, size):
                new_cells = list(cells)
                for i in chosen:
                    a, v = new_cells[i]
                    new_cells[i] = (a, CodeVal(v.body, v.captured, k))
                if self.member(body, env, w, Heap(tuple(new_cells))):
                    return True
        return False

    # --- semantic triples

    def _member3(self, P, w, frame, g: Heap) -> bool:
        """g in  [[P]]w * (world invariant at the unit world * frame)."""
        key = (P._id, w._id, frame._id)
        row = self._member3_table.get(key)
        if row is None:
            row = self._member3_table[key] = {}
        return _memo(row, g._id, self._star3, P, w, frame, g)

    def _star3(self, P, w, frame, g: Heap) -> bool:
        rest = Star((w, frame))
        return any(self.member(P, EMPTY_ENV, w, g1)
                   and self.member(rest, EMPTY_ENV, Emp(), g2)
                   for g1, g2 in splits(g))

    def _dcl_member3(self, P, w, frame, h: Heap) -> bool:
        """Downward-closure membership: some tag-raised candidate above h
        lies in the target set."""
        return any(self._member3(P, w, frame, g) for g in self.raises(h))

    def sem_triple_at(self, k: int, w, pre, code: HeapValue, post,
                      env: Env = EMPTY_ENV) -> Verdict:
        key = (k, w._id, pre._id, post._id, code._id, env._id)
        return _memo(self._triple_cache, key,
                     self._sem_triple_at, k, w, pre, code, post, env)

    def _sem_triple_at(self, k, w, pre, code, post, env) -> Verdict:
        if not isinstance(code, CodeVal):
            return Fail(Witness("triple", w, None, BOT, "non-code",
                                "the evaluated expression is not code",
                                env, k))
        pre_c = close_assertion(pre, env)
        post_c = close_assertion(post, env)
        samples = 0
        inconclusive = 0
        for frame in self.cfg.frame_pool:
            for n in range(k + 1):
                for g in self.universe_up_to_rank(n):
                    outcome = self._sample(code, g, n, w, frame, pre_c, post_c)
                    if outcome is None:
                        continue
                    samples += 1
                    self.samples += 1
                    if outcome[0] == "out-of-fuel":
                        inconclusive += 1
                        self.inconclusive += 1
                    elif outcome[0] != "ok":
                        return Fail(Witness("triple", w, frame, g, *outcome,
                                            env, n))
        return Pass(samples, inconclusive)

    def _sample(self, code: CodeVal, g: Heap, n: int, w, frame,
                pre_c, post_c):
        """Run the code on one sample heap g at level n.  None when g lies
        outside the precondition; otherwise (outcome, reason), the outcome
        being "fault", "out-of-fuel", "post-violation" or "ok"."""
        if not self._member3(pre_c, w, frame, g):
            return None
        out = run_codeval(code, g, self.cfg.fuel)
        if isinstance(out, Fault):
            return "fault", out.reason
        if isinstance(out, OutOfFuel):
            return "out-of-fuel", None
        h2 = truncate(n, out.heap)
        if self._dcl_member3(post_c, w, frame, h2):
            return "ok", None
        return "post-violation", \
            f"result heap [{format_heap(h2)}] is outside the postcondition"

    # --- entry points

    def _env_samples(self, fvs):
        """Every environment of fvs, refused above env_cap: a Pass on
        part of them would not have exhausted the universe."""
        fvs = sorted(fvs)
        count = len(self.values()) ** len(fvs)
        if count > self.cfg.env_cap:
            raise UniverseTooLarge(f"the goal has {count:,} environments, "
                                   f"more than env_cap = {self.cfg.env_cap}")
        return [Env(tuple(zip(fvs, combo)))
                for combo in itertools.product(self.values(),
                                               repeat=len(fvs))]

    def test_triple(self, P, e, Q) -> Verdict:
        fvs = free_vars(P)[0] | free_vars(e)[0] | free_vars(Q)[0]
        total = Pass(0, 0)
        for env in self._env_samples(fvs):
            try:
                code = eval_expr(e, env)
            except (TypeFault, UnboundVariable) as exc:
                return Fail(Witness("triple", Emp(), None, BOT,
                                    "bad-code", str(exc), env))
            for w in self.cfg.world_pool:
                verdict = self.sem_triple_at(self.cfg.level_k, w, P, code,
                                             Q, env)
                if isinstance(verdict, Fail):
                    return verdict
                total = Pass(total.samples + verdict.samples,
                             total.inconclusive + verdict.inconclusive)
        return total

    def test_entailment(self, P, Q) -> Verdict:
        goal = Implies(P, Q)
        fvs = free_vars(goal)[0]
        samples = 0
        base_inconclusive = self.inconclusive
        for env in self._env_samples(fvs):
            for w in self.cfg.world_pool:
                for h in self.universe():
                    samples += 1
                    if not self.member(goal, env, w, h):
                        return Fail(Witness(
                            "entailment", w, None, h, "implication-violation",
                            "heap satisfies the left side but not the right",
                            env))
        return Pass(samples, self.inconclusive - base_inconclusive)

    def replay(self, witness: Witness, goal_kind: str, P, extra=None) -> bool:
        """Re-examine a Fail witness; True iff the failure reproduces."""
        if witness.kind == "entailment":
            return not self.member(P, witness.env, witness.world,
                                   witness.heap)
        pre, e, post = P, extra[0], extra[1]
        try:
            code = eval_expr(e, witness.env)
        except (TypeFault, UnboundVariable):
            return True
        if not isinstance(code, CodeVal):
            return True
        pre_c = close_assertion(pre, witness.env)
        post_c = close_assertion(post, witness.env)
        outcome = self._sample(code, witness.heap, witness.level,
                               witness.world, witness.frame, pre_c, post_c)
        return outcome is not None \
            and outcome[0] in ("fault", "post-violation")


def mu_approximation(mu: Mu, depth: int):
    """Unfold a recursive assertion `depth` >= 1 times; residual
    occurrences of the bound relation variable become false."""
    key = (mu._id, depth)
    out = _MU_APPROXIMATIONS.get(key)
    if out is not None:
        return out
    approx = FalseA()
    for _ in range(depth - 1):
        approx = substitute(mu.body, rel_map={mu.relvar: (mu.params, approx)})
    out = _MU_APPROXIMATIONS[key] = unfold(mu, approx)
    return out
