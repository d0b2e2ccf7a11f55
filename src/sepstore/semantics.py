"""Finite-approximation semantic model.

Worlds are closed assertions; a world's membership function is the
denotation of its invariant, and worlds compose by invariant combination
(`syntax.circ`), the syntactic image of its defining equation.  The
membership evaluator follows the assertion semantics clause by clause over
a bounded universe of heaps, values, worlds and frames described by a
TestConfig, one heap at a time; for a triple-free assertion without `<>`,
`mu` or `(*)` the same clauses are also computed a set at a time, over the
whole universe (Tester.denotation), and such a term's membership, at any
depth of a goal, is one bit of its set on a universe heap.  On top of it
sit a bounded semantic-triple tester and an entailment tester: a Fail
verdict is a genuine refutation within the model, a Pass means no
counterexample exists in the configured universe.  An entailment scans
the universe for the first heap in its left side and not in its right:
over the left side's set when that side is static, minus the right
side's when both are, building only the heaps it reads.  A triple whose
pre, post, world and frame are all static is judged from sets too, when
k <= tag_max: each code runs once per universe heap, and the
postcondition check is one bit of a set.  A straight-line code (updates
and `free`s) is read as one digit map per address instead, so such a
triple is judged from sets without a run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from .grammar import pretty
from .interp import (
    BOT, EMPTY_ENV, INF, CodeVal, Done, Env, Fault, Heap, HeapValue,
    IntVal, OutOfFuel, TypeFault, UnboundVariable, eval_expr, format_heap,
    format_value, rank, run_codeval, tag_raises, truncate, value_leq,
)
from .syntax import (
    And, Assign, Diamond, Emp, Eq, Exists, FalseA, Forall, Free, Implies,
    Leq, Mu, Or, PointsTo, PSEUDO_PURE, PURE, RelVar, Seq, Skip, Star,
    Tensor, Triple, TrueA, TABLES, ValueLit, circ, classify, free_vars,
    halves, substitute, unfold,
)


class UniverseOverflow(Exception):
    pass


class UniverseTooLarge(Exception):
    """The configured heap universe has more than MAX_UNIVERSE_HEAPS heaps,
    or a goal's environments number more than the config's env_cap."""


# The most heaps a Tester's universe may hold.  The default CLI universe
# has 2,198 heaps and the fuzz universe 37; six addresses over the default
# values give ~4.8M, on which `sepstore test` ran for over a minute without
# a verdict, so a config that large is refused before its universe is
# numbered.
MAX_UNIVERSE_HEAPS = 100_000


class CacheReentry(Exception):
    """A cached evaluation asked for its own result while computing it."""


_IN_PROGRESS = object()
_OK = ("ok", None)


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
        # a repeated entry would list the same heap, value, world or frame
        # twice and count its samples twice; the first one is kept
        pools = {f: tuple(dict.fromkeys(getattr(self, f)))
                 for f in ("addr_pool", "int_pool", "code_pool",
                           "world_pool", "frame_pool")}
        if Emp() not in pools["world_pool"]:
            pools["world_pool"] = (Emp(),) + pools["world_pool"]
        for needed in (Emp(), TrueA()):
            if needed not in pools["frame_pool"]:
                pools["frame_pool"] += (needed,)
        for field, pool in pools.items():
            object.__setattr__(self, field, pool)


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


class _UniverseIndex:
    """The mixed-radix numbering of one heap universe.  A non-Bot heap's
    code has one digit per address of the sorted pool `addrs`, the first
    address least significant: 0 where the heap is unmapped, else 1 + the
    index of its value in `vals`.  levels[n] maps a digit to the digit of
    its value truncated at level n >= 1, and ranks[d] is the rank of a
    heap whose highest-ranked digit is d.

    Heaps are built on demand: heap(code) interns the heap of a code on
    its first request, stores it in by_code (None before) and gives it
    its bit in `bits`.  A universe heap interned elsewhere first, a run's
    result say, gets its bit from its cells (bit).  The module's splits
    and truncations answer a heap in `bits` by this index's arithmetic
    when the asking Tester passes it.

    A set of universe heaps is an int: bit 0 stands for Bot and bit
    code + 1 for the heap of that code; `full` is the whole universe, and
    with_digit[i][d] the heaps whose digit i is d."""

    __slots__ = ("addrs", "vals", "by_code", "bits", "radix", "places",
                 "ranks", "levels", "full", "with_digit", "_domains",
                 "_zeros", "_pulls", "_raise_pairs", "_place_of",
                 "_digit_of")

    def __init__(self, vals, addrs):
        self.addrs, self.vals = addrs, vals
        self.radix = 1 + len(vals)
        self.places = tuple(self.radix ** i for i in range(len(addrs)))
        self.by_code = [None] * self.radix ** len(addrs)
        self.bits = {BOT._id: 0}    # heap serial -> bit, for heaps built
        self.ranks = (1,) + tuple(1 + v.tag if isinstance(v, CodeVal)
                                  else 1 for v in vals)
        self._place_of = dict(zip(addrs, self.places))
        self._digit_of = {}         # value serial -> its first digit
        for d, v in enumerate(vals, 1):
            self._digit_of.setdefault(v._id, d)
        # level n caps a stored closure's tag at n - 1 (interp.truncate)
        self.levels = [None] + [
            (0,) + tuple(self._digit_of[CodeVal(v.body, v.captured, n - 1)._id]
                         if isinstance(v, CodeVal) and v.tag > n - 1 else d
                         for d, v in enumerate(vals, 1))
            for n in range(1, max(self.ranks) + 1)]
        count = len(self.by_code)
        self.full = (2 << count) - 1
        # digit i is d on a run of places[i] codes, repeated every
        # radix * places[i] codes
        self.with_digit = []
        for place in self.places:
            period = self.radix * place
            repeat = ((1 << count) - 1) // ((1 << period) - 1)
            self.with_digit.append([
                (((1 << place) - 1) << d * place + 1) * repeat
                for d in range(self.radix)])
        # the mapped addresses of each code, one bit per address
        self._domains = [0]
        for i in range(len(addrs)):
            self._domains = [dom | bool(d) << i for d in range(self.radix)
                             for dom in self._domains]
        self._zeros = {}    # domain -> the heaps unmapped on all of it
        # per level n, None when it truncates nothing, else per address:
        # the heaps whose digit it keeps, and (heaps with digit e, shift up
        # to digit d) for each digit d it lowers to e
        self._pulls = [None]
        for level in self.levels[1:]:
            moved = [(d, e) for d, e in enumerate(level) if d != e]
            self._pulls.append([
                (self.full - 1 - sum(digit[d] for d, _ in moved),
                 [(digit[e], (d - e) * place) for d, e in moved])
                for digit, place in zip(self.with_digit, self.places)]
                if moved else None)
        # (d, e): the value of digit e is a tag raise of that of digit d;
        # a command's tags count up through vals, so e > d
        self._raise_pairs = [(d, e) for d, v in enumerate(vals, 1)
                             for e, u in enumerate(vals, 1)
                             if e != d and value_leq(v, u)]

    def digits(self, code) -> list:
        out = []
        for _ in self.places:
            code, d = divmod(code, self.radix)
            out.append(d)
        return out

    def heap(self, code) -> Heap:
        """The heap of a code, built and registered on first request."""
        h = self.by_code[code]
        if h is None:
            h = self._register(code, Heap(tuple(
                (a, self.vals[d - 1])
                for a, d in zip(self.addrs, self.digits(code)) if d)))
        return h

    def _register(self, code, h: Heap) -> Heap:
        self.by_code[code] = h
        self.bits[h._id] = code + 1
        return h

    def bit(self, h: Heap) -> Optional[int]:
        """h's bit, or None when h is outside this universe (an address
        outside the pool, a value outside vals)."""
        bit = self.bits.get(h._id)
        if bit is None:
            code, last = 0, 0
            for a, v in h.cells:
                place = self._place_of.get(a)
                d = self._digit_of.get(v._id)
                if place is None or d is None or place <= last:
                    return None
                code += d * place
                last = place
            self._register(code, h)
            bit = code + 1
        return bit

    def splits(self, code) -> list:
        """The sub-heap of each mask over the mapped addresses, in mask
        order: subset sums of the nonzero digits, doubled up bit by bit."""
        sums = [0]
        for d, place in zip(self.digits(code), self.places):
            if d:
                term = d * place
                sums += [s + term for s in sums]
        return [self.heap(s) for s in sums]

    def truncations(self, code) -> tuple:
        digits = self.digits(code)
        top = max((self.ranks[d] for d in digits), default=1)
        return (BOT,) + tuple(
            self.heap(sum(level[d] * place
                          for d, place in zip(digits, self.places)))
            for level in self.levels[1:top + 1])

    # --- sets of universe heaps

    def up_to_rank(self, n) -> int:
        """The heaps of rank at most n: Bot, and for n >= 1 the heaps each
        of whose digits has rank at most n."""
        out = self.full - 1 if n >= 1 else 0
        for digit in self.with_digit:
            out &= sum(digit[d] for d, r in enumerate(self.ranks) if r <= n)
        return out | 1

    def star(self, a, b) -> int:
        """{h1 * h2 : h1 in a, h2 in b}: the code of a disjoint union is
        the sum of the codes, so each member c of the smaller set adds
        the members of the other that are unmapped where c is mapped,
        shifted by c.  Bot is in it when it is in both."""
        if a.bit_count() > b.bit_count():
            a, b = b, a
        out = a & b & 1
        members = bin(a >> 1)[:1:-1]    # members[c] == "1": code c in a
        c = members.find("1")
        while c >= 0:
            dom = self._domains[c]
            zero = self._zeros.get(dom)
            if zero is None:
                zero = self.full - 1
                for i, digit in enumerate(self.with_digit):
                    if dom >> i & 1:
                        zero &= digit[0]
                self._zeros[dom] = zero
            out |= (b & zero) << c
            c = members.find("1", c + 1)
        return out

    def downward(self, bad) -> int:
        """The heaps none of whose truncations lies in bad.  Truncation at
        level n maps each digit through levels[n], so the heaps whose
        level-n truncation lies in bad are, address by address, the codes
        whose digit is kept plus those of each lowered digit, shifted back
        up.  Bot, the truncation at level 0 of every heap, is never in
        bad: every atom holds at Bot and every connective keeps it, so
        every denotation holds Bot."""
        hit = bad   # the top level truncates nothing
        for pull in self._pulls:
            if pull:
                hit |= self._pull(bad, pull)
        return self.full & ~hit

    def raised(self, s) -> list:
        """Per level n, the heaps whose truncation at n has a tag raise
        within vals in s.  Address by address, the mirror of downward: s
        plus the heaps of each raised digit shifted down to its own; then
        pulled back through each level.  The last entry stands for every
        level from the top one up."""
        for digit, place in zip(self.with_digit, self.places):
            out = s
            for d, e in self._raise_pairs:
                out |= (s & digit[e]) >> (e - d) * place
            s = out
        bot = s & 1
        return [self.full if bot else 0] + [
            bot | self._pull(s, pull) if pull else s
            for pull in self._pulls[1:]]

    @staticmethod
    def _pull(s, pull) -> int:
        """The non-Bot heaps whose truncation by one level's `pull` lies
        in s: address by address, the codes whose digit is kept plus those
        of each lowered digit, shifted back up."""
        for kept, lowered in pull:
            out = s & kept
            for mask, shift in lowered:
                out |= (s & mask) << shift
            s = out
        return s

    def preimage(self, s, maps) -> int:
        """The heaps whose image under a command's digit maps (maps, from
        Tester._digit_maps) lies in s, Bot mapping to Bot.  Address by
        address, as _pull: the codes whose digit d maps to e are those of
        s with digit e, shifted from e to d; a digit that faults maps to
        nothing, and an address outside the pool faults on every non-Bot
        heap."""
        out = s
        for i, f in maps:
            if i is None:
                return s & 1
            digit, place = self.with_digit[i], self.places[i]
            out, before = 0, out
            for d, e in enumerate(f):
                if e is not None:
                    hit = before & digit[e]
                    out |= hit << (d - e) * place if d >= e \
                        else hit >> (e - d) * place
        return out | s & 1


def splits(h: Heap, index: Optional[_UniverseIndex] = None) -> tuple:
    """Every pair (h1, h2) with h = h1 * h2, h1 holding the cells picked by
    the bits of a mask counted up from 0; Bot splits only into Bot and
    Bot.  A heap the asking index has built takes its sub-heaps from the
    index, any other heap's are built cell by cell."""
    out = _SPLITS.get(h._id)
    if out is not None:
        return out
    bit = index.bits.get(h._id) if index is not None else None
    if bit:
        sub = index.splits(bit - 1)
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


def truncations(h: Heap, what: str,
                index: Optional[_UniverseIndex] = None) -> tuple:
    """truncate(n, h) for n = 0 .. rank(h), from the asking index as
    splits reads it; a heap of infinite rank raises UniverseOverflow about
    `what`."""
    out = _TRUNCATIONS.get(h._id)
    if out is not None:
        return out
    bit = index.bits.get(h._id) if index is not None else None
    if bit:
        out = index.truncations(bit - 1)
    else:
        out = tuple(truncate(n, h)
                    for n in range(_finite_rank(h, what) + 1))
    _TRUNCATIONS[h._id] = out
    return out


class Tester:
    """Bounded membership evaluator and triple/entailment tester.

    It holds the tables whose answers depend on its configuration:
    membership, denotations, the _member3 rows, triples, the set of the
    heaps up to each rank, tag raises, quantifier bindings, the runs of
    each code on universe heaps, the digit maps of each code and the
    raised sets of postconditions (syntax docstring, home 3).  Each is
    keyed by ints, serials (`_id`) or, for the raised sets, a set, never
    by the terms or values themselves: an int key hashes in C, where a
    term or value would hash through a Python `__hash__`.  Each goes
    through _memo but the run table and the digit maps: neither
    run_codeval nor _digit_maps calls back into the Tester, so none of
    their entries can be re-entered.  The member cache has one entry per
    (P, env, w): P's set when P is static (else None), and a row, a dict
    from heap serial to answer, filled on demand.  `member` answers a hit
    from one probe of its row, and only a miss goes through _memo.

    The universe is numbered before any of its heaps exists: the Tester's
    own index (_UniverseIndex) and the universe order, a list of bits,
    are read off the mixed-radix digits.  A group of heaps is a set: the
    heaps up to rank n are one (_rank_set), and _in_order lists a set's
    bits in universe order, the one walk of the universe that universe(),
    universe_up_to_rank, the triple sampler and test_entailment share.  A
    heap is built when a question reads it, and universe() builds them
    all.  A built heap's bit is in _bit, the index's own dict.  The
    numbering depends on the configuration, so it is the Tester's alone:
    splits and truncations read the asking Tester's index, and sets are
    read through it.

    A static assertion (`static`) has a denotation, the set of universe
    heaps in it, computed once per (P, env) with one set operation per
    connective.  Five questions read sets:
    - member of a static P: its entry, made once per (P, env, w), holds
      P's set, and a universe heap is answered by one bit; a heap outside
      the universe keeps the per-heap clause, in the entry's row;
    - test_entailment scans for the first heap in the left side P and
      not in the right side Q, building only the heaps it reads.  A
      static P narrows the scan to P's set, and when Q is static too, to
      P's set minus Q's, so a Pass builds no heap.  Q's set narrows it
      only then: skipping Q's heaps would skip the triples nested in a
      non-static P on them, and their samples.  A heap's truncations
      come no later in universe order than itself, so the first heap of
      P outside Q is the first outside the goal, and P and Q are read on
      the heaps the goal's clause would read them on;
    - _member3 of a static P, w and frame reads the set of P * (w *
      frame), which _sem_triple_at also uses to visit only the heaps in
      it;
    - _sem_triple_at, when the post is static too and level_k <= tag_max,
      judges a sample by two reads: the run table gives the bit of the
      code's result, and the raised set of the post's set at the level
      holds it iff _dcl_member3 accepts it.  Tag raises go up to
      max(tag_max, level_k) (raises), so only with level_k <= tag_max
      is every raise of a universe heap one;
    - there, a straight-line code (_digit_maps: `skip`, updates and
      `free`s of tag INF, whose operands evaluate and whose stored values
      are in values()) changes one digit per address it touches, so its
      results stay in the universe, and the pre heaps whose run faults or
      misses the raised set at a level are one set: the pre heaps of rank
      up to the level minus the preimage of the raised set
      (_UniverseIndex.preimage).  Bot maps to Bot, as every run on Bot
      ends in Bot.  With no heap in it, the level's samples are a
      popcount; otherwise the scan stops at the first heap in it, in
      universe order, and only that heap is built and run, so the
      interpreter writes the witness's fault reason or result.
    A result outside the universe (a fresh address, a value outside the
    pools), a non-static term and level_k > tag_max are judged per heap
    by _sample, which replay also uses.  The _member3 entry holds the set
    (or None) and the row of the heaps answered by _star3, one per heap:
    every heap when a term is not static, and a heap outside this
    universe when all are.  A term with a triple, `<>`, `mu` or `(*)`
    stays per heap, as do its connectives above its static sub-terms."""

    def __init__(self, cfg: TestConfig):
        self.cfg = cfg
        self._member_cache: dict = {}   # (P, env, w) -> (set, {h: answer})
        self._member3_table: dict = {}  # (P, w, frame) -> {g: _member3(...)}
        self._raises: dict = {}         # h -> tag_raises(h, ...)
        self._bindings: dict = {}       # (env, x) -> env.bind(x, d) per value
        self._triple_cache: dict = {}
        self._sets: dict = {}           # (P, env) -> denotation(P, env)
        self._runs: dict = {}           # code -> {bit: its run (_ran)}
        self._maps: dict = {}           # code -> its _digit_maps
        self._rank_sets: dict = {}      # n -> the heaps of rank <= n
        self._raised_sets: dict = {}    # set -> _UniverseIndex.raised(set)
        self._universe: Optional[list] = None
        self._index: Optional[_UniverseIndex] = None
        self._bit: dict = {}            # built universe heap -> its bit
        self._order: list = []          # the bit of each universe heap
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

    def _universe_index(self) -> _UniverseIndex:
        """The index and the universe order, built without a heap; a
        universe above MAX_UNIVERSE_HEAPS is refused first."""
        if self._index is None:
            vals = self.values()
            # BOT, then every partial map from addr_pool into vals
            count = 1 + (1 + len(vals)) ** len(self.cfg.addr_pool)
            if count > MAX_UNIVERSE_HEAPS:
                raise UniverseTooLarge(
                    f"the heap universe has {count:,} heaps, more than "
                    f"{MAX_UNIVERSE_HEAPS:,}; use fewer addresses or values")
            n = len(self.cfg.addr_pool)
            index = _UniverseIndex(vals, tuple(sorted(self.cfg.addr_pool)))
            order = [0, 1]
            for size in range(1, n + 1):
                for dom in itertools.combinations(range(n), size):
                    # the bit of every map on dom, in the order of
                    # itertools.product over vals
                    bits = [1]
                    for i in dom:
                        place = index.places[i]
                        bits = [b + d * place for b in bits
                                for d in range(1, index.radix)]
                    order += bits
            self._bit = index.bits
            self._order = order
            self._index = index
        return self._index

    def universe(self) -> list:
        """Every heap of the universe, in a fixed order.  No question of
        the Tester builds them all; tests and the bench counter do."""
        if self._universe is None:
            full = self._universe_index().full
            self._universe = [self._heap(b) for b in self._in_order(full)]
        return self._universe

    def universe_up_to_rank(self, n) -> list:
        return [self._heap(b) for b in self._in_order(self._rank_set(n))]

    def _rank_set(self, n) -> int:
        """The heaps of rank at most n, as a set."""
        return _memo(self._rank_sets, n, self._universe_index().up_to_rank, n)

    def _in_order(self, s) -> list:
        """The bits of the set s, in universe order."""
        # one character per bit, bit 0 first
        chars = f"{s:0{self._index.full.bit_length()}b}"[::-1]
        return [b for b in self._order if chars[b] == "1"]

    def _heap(self, bit) -> Heap:
        """The universe heap of a bit, built on first request."""
        if not bit:
            return BOT
        index = self._index
        return index.by_code[bit - 1] or index.heap(bit - 1)

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
        entry = self._member_cache.get(key)
        if entry is None:
            entry = self._member_cache[key] = (
                self.denotation(P, env) if static(P) else None, {})
        bits, row = entry
        if bits is not None:
            # a universe heap of a static P is one bit of its set
            bit = self._bit.get(h._id)
            if bit is None:
                bit = self._index.bit(h)
            if bit is not None:
                return bits >> bit & 1 == 1
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
            return h.is_bot or _compare(P, env)
        if t is PointsTo:
            if h.is_bot:
                return True
            cell = _cell_spec(P, env)
            if cell is None or len(h.cells) != 1:
                return False
            addr, v = h.cells[0]
            return addr == cell[0] and value_leq(v, cell[1])
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
            for hn in truncations(h, "implication", self._index):
                if self.member(P.left, env, w, hn) \
                        and not self.member(P.right, env, w, hn):
                    return False
            return True
        if t is Forall:
            return all(self.member(P.body, e, w, h)
                       for e in self.bindings(env, P.var))
        if t is Exists:
            envs = self.bindings(env, P.var)
            for hn in reversed(truncations(h, "existential", self._index)):
                if not any(self.member(P.body, e, w, hn) for e in envs):
                    return False
            return True
        if t is Star:
            left, right = halves(P)
            return any(self.member(left, env, w, h1)
                       and self.member(right, env, w, h2)
                       for h1, h2 in splits(h, self._index))
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

    # --- denotations: the set of universe heaps of a static assertion

    def denotation(self, P, env: Env) -> int:
        """The universe heaps in [[P]]env, as a set of _UniverseIndex, for
        a static P (`static`), whose answer is the same in every
        world."""
        return _memo(self._sets, (P._id, env._id), self._denote, P, env)

    def _denote(self, P, env) -> int:
        index = self._universe_index()
        t = type(P)
        if t is FalseA:
            return 1
        if t is TrueA:
            return index.full
        if t is Emp:
            return 0b11
        if t is Eq or t is Leq:
            return index.full if _compare(P, env) else 1
        if t is PointsTo:
            cell = _cell_spec(P, env)
            if cell is None or cell[0] not in index.addrs:
                return 1
            place = index.places[index.addrs.index(cell[0])]
            return 1 | sum(1 << d * place + 1
                           for d, v in enumerate(index.vals, 1)
                           if value_leq(v, cell[1]))
        if t is And:
            out = index.full
            for p in P.parts:
                out &= self.denotation(p, env)
            return out
        if t is Or:
            out = 0
            for p in P.parts:
                out |= self.denotation(p, env)
            return out
        if t is Implies:
            return index.downward(self.denotation(P.left, env)
                                  & ~self.denotation(P.right, env))
        if t is Forall:
            out = index.full
            for e in self.bindings(env, P.var):
                out &= self.denotation(P.body, e)
            return out
        if t is Exists:
            out = 0
            for e in self.bindings(env, P.var):
                out |= self.denotation(P.body, e)
            return index.downward(index.full ^ out)
        if t is Star:
            parts = P.parts
            out = self.denotation(parts[0], env)
            for p in parts[1:]:
                out = index.star(out, self.denotation(p, env))
            return out
        raise TypeError(f"not a static assertion: {P!r}")

    # --- semantic triples

    def _member3(self, P, w, frame, g: Heap) -> bool:
        """g in  [[P]]w * (world invariant at the unit world * frame)."""
        bits, row = self._member3_entry(P, w, frame)
        if bits is not None:
            bit = self._bit.get(g._id)
            if bit is None:
                bit = self._index.bit(g)
            if bit is not None:
                return bits >> bit & 1 == 1
        return _memo(row, g._id, self._star3, P, w, frame, g)

    def _member3_entry(self, P, w, frame) -> tuple:
        """(the set of P * (w * frame), or None when one of them is not
        static; the row of the heaps _star3 answered)."""
        key = (P._id, w._id, frame._id)
        entry = self._member3_table.get(key)
        if entry is None:
            bits = None
            if static(P) and static(w) and static(frame):
                pre = self.denotation(P, EMPTY_ENV)
                rest = self.denotation(Star((w, frame)), EMPTY_ENV)
                bits = self._index.star(pre, rest)
            entry = self._member3_table[key] = (bits, {})
        return entry

    def _star3(self, P, w, frame, g: Heap) -> bool:
        rest = Star((w, frame))
        return any(self.member(P, EMPTY_ENV, w, g1)
                   and self.member(rest, EMPTY_ENV, Emp(), g2)
                   for g1, g2 in splits(g, self._index))

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
        # a raised set is exact when every tag raise of a universe heap
        # is in the universe (Tester docstring)
        by_sets = self.cfg.level_k <= self.cfg.tag_max
        samples = 0
        inconclusive = 0
        for frame in self.cfg.frame_pool:
            bits = self._member3_entry(pre_c, w, frame)[0]
            raised = maps = None
            if by_sets and bits is not None:
                post_bits = self._member3_entry(post_c, w, frame)[0]
                if post_bits is not None:
                    raised = _memo(self._raised_sets, post_bits,
                                   self._index.raised, post_bits)
                    if code._id not in self._maps:
                        self._maps[code._id] = self._digit_maps(code)
                    maps = self._maps[code._id]
            for n in range(k + 1):
                # the heaps visited: those of rank <= n, in bits if a set
                at_n = self._rank_set(n)
                if bits is not None:
                    at_n &= bits
                if raised is not None:
                    ok = raised[min(n, len(raised) - 1)]
                    if maps is not None:
                        # the samples at n whose run faults or misses ok
                        bad = at_n & ~self._index.preimage(ok, maps)
                        if not bad:
                            count = at_n.bit_count()
                            samples += count
                            self.samples += count
                            continue
                for b in self._in_order(at_n):
                    if raised is None:
                        outcome = self._sample(code, self._heap(b), n, w,
                                               frame, pre_c, post_c)
                        if outcome is None:
                            continue
                    elif maps is not None and not bad >> b & 1:
                        outcome = _OK
                    else:
                        # b is in the precondition's set; a result in the
                        # universe is its bit, in the post if in ok
                        out = self._ran(code, b)
                        if type(out) is not int:
                            outcome = self._judge(out, n, w, frame, post_c)
                        elif ok >> out & 1:
                            outcome = _OK
                        else:
                            outcome = _violation(truncate(n, self._heap(out)))
                    samples += 1
                    self.samples += 1
                    if outcome[0] == "out-of-fuel":
                        inconclusive += 1
                        self.inconclusive += 1
                    elif outcome[0] != "ok":
                        return Fail(Witness("triple", w, frame, self._heap(b),
                                            *outcome, env, n))
        return Pass(samples, inconclusive)

    def _digit_maps(self, code: CodeVal):
        """A straight-line code as digit maps: a tuple of (i, f) for each
        address index i it updates or frees (None for an address outside
        the pool), f[d] being digit i after the run on a heap whose digit
        i is d, or None where the run faults.  Such a code is `skip`,
        `[e] := e'` and `free(e)` in `;` chains of at most `fuel` `;`s, of
        tag INF, each operand evaluating and each stored value in
        values(); for any other code, None.  An update sends a mapped
        digit to its value's, `free` sends it to 0, both fault on 0."""
        if code.tag != INF:
            return None
        index, env = self._index, code.captured
        maps, todo, seqs = {}, [code.body], 0
        while todo:
            c = todo.pop()
            t = type(c)
            if t is Seq:
                seqs += len(c.cmds) - 1
                todo += reversed(c.cmds)
            elif t is Assign or t is Free:
                try:
                    a = eval_expr(c.target if t is Assign else c.addr, env)
                    e = 0 if t is Free else \
                        index._digit_of.get(eval_expr(c.source, env)._id)
                except (TypeFault, UnboundVariable):
                    return None
                if e is None:
                    return None
                i = index.addrs.index(a.n) if type(a) is IntVal \
                    and a.n in index.addrs else None
                maps[i] = tuple(e if d else None
                                for d in maps.get(i, range(index.radix)))
            elif t is not Skip:
                return None
        return tuple(maps.items()) if seqs <= self.cfg.fuel else None

    def _ran(self, code: CodeVal, bit: int):
        """The run of code on the universe heap of bit, from the run table:
        the result's bit when it is in the universe, else the Fault,
        OutOfFuel or Done."""
        row = self._runs.get(code._id)
        if row is None:
            row = self._runs[code._id] = {}
        out = row.get(bit)
        if out is None:
            out = run_codeval(code, self._heap(bit), self.cfg.fuel)
            if type(out) is Done:
                result = self._index.bit(out.heap)
                if result is not None:
                    out = result
            row[bit] = out
        return out

    def _sample(self, code: CodeVal, g: Heap, n: int, w, frame,
                pre_c, post_c):
        """Run the code on one sample heap g at level n.  None when g lies
        outside the precondition; otherwise (outcome, reason) (_judge)."""
        if not self._member3(pre_c, w, frame, g):
            return None
        bit = self._universe_index().bit(g)
        if bit is None:
            return self._judge(run_codeval(code, g, self.cfg.fuel), n, w,
                               frame, post_c)
        return self._judge(self._ran(code, bit), n, w, frame, post_c)

    def _judge(self, out, n: int, w, frame, post_c):
        """(outcome, reason) of a run's outcome at level n, the outcome
        being "fault", "out-of-fuel", "post-violation" or "ok": the result
        truncated at n must lie in the downward closure of the post."""
        if isinstance(out, Fault):
            return "fault", out.reason
        if isinstance(out, OutOfFuel):
            return "out-of-fuel", None
        h2 = truncate(n, self._heap(out) if type(out) is int else out.heap)
        if self._dcl_member3(post_c, w, frame, h2):
            return _OK
        return _violation(h2)

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
        envs = self._env_samples(free_vars(Implies(P, Q))[0])
        left_static = static(P)
        narrow = left_static and static(Q)
        index = self._universe_index()
        samples = 0
        base_inconclusive = self.inconclusive
        for env in envs:
            for w in self.cfg.world_pool:
                # the first heap in P and not in Q, in universe order: in
                # P's set when P is static, minus Q's when both are
                # (Tester docstring)
                read = self.denotation(P, env) if left_static else index.full
                if narrow:
                    read &= ~self.denotation(Q, env)
                bad = next((b for b in self._in_order(read)
                            if self.member(P, env, w, self._heap(b))
                            and not self.member(Q, env, w, self._heap(b))),
                           None)
                if bad is not None:
                    return Fail(Witness(
                        "entailment", w, None, self._heap(bad),
                        "implication-violation",
                        "heap satisfies the left side but not the right",
                        env))
                samples += len(self._order)
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


def _violation(h2: Heap) -> tuple:
    return "post-violation", \
        f"result heap [{format_heap(h2)}] is outside the postcondition"


_STATIC_ATOMS = (FalseA, TrueA, Emp, Eq, Leq, PointsTo)


def static(P) -> bool:
    """P is built from atoms and `/\\`, `\\/`, `=>`, `forall`, `exists` and
    `*` alone: no triple (which counts samples), `<>` (which leaves the
    universe), `mu` (which reads the rank) or `(*)` (which changes the
    world).  Its denotation is then a set of universe heaps, the same in
    every world (Tester.denotation)."""
    todo = [P]
    while todo:
        p = todo.pop()
        t = type(p)
        if t is And or t is Or or t is Star:
            todo += p.parts
        elif t is Implies:
            todo += (p.left, p.right)
        elif t is Forall or t is Exists:
            todo.append(p.body)
        elif t not in _STATIC_ATOMS:
            return False
    return True


def _compare(P, env) -> bool:
    """The truth of the comparison P (= or <=) in env; false when an
    operand does not evaluate."""
    try:
        a = eval_expr(P.left, env)
        b = eval_expr(P.right, env)
    except (TypeFault, UnboundVariable):
        return False
    if type(P) is Eq:
        return a == b
    return isinstance(a, IntVal) and isinstance(b, IntVal) and a.n <= b.n


def _cell_spec(P, env):
    """(address, value) of the points-to P in env, or None when either
    does not evaluate or the address is not a positive int."""
    try:
        a = eval_expr(P.addr, env)
        v = eval_expr(P.value, env)
    except (TypeFault, UnboundVariable):
        return None
    if not isinstance(a, IntVal) or a.n < 1:
        return None
    return a.n, v


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
