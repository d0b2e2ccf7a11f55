"""Randomized soundness testing of the rule set.

For every rule we instantiate random applications via apply_rule, test all
premises semantically, and whenever every premise passes, require that the
conclusion passes as well.  Samples whose premises fail (or that the
schema validation rejects) count as inconclusive.
"""

import random
from dataclasses import dataclass, field

from .semantics import TestConfig, Tester, Fail, Pass
from .syntax import (And, BinOp, Diamond, Emp, Eq, Exists, FalseA, Forall,
                     Implies, IntLit, Judgement, Leq, Mu, Or, PointsTo,
                     Quote, RelVar, Star, Tensor, Triple, TrueA, Var,
                     conj, join, star, substitute)
from .syntax import Assign, EvalAt, Free as FreeCmd, Skip as SkipCmd
from .logic import ProofError, apply_rule, iff, unfold_mu
from .grammar import parse

ADDRS = (1, 2)
INTS = (0, 1)
SKIP = Quote(SkipCmd())


def fuzz_config() -> TestConfig:
    return TestConfig(
        addr_pool=ADDRS,
        int_pool=INTS,
        code_pool=(SkipCmd(),),
        tag_max=2,
        level_k=2,
    )


# ---------------------------------------------------------------------------
# random material


def addr(rng):
    return IntLit(rng.choice(ADDRS))


def value(rng):
    if rng.random() < 0.25:
        return SKIP
    return IntLit(rng.choice(INTS))


def atom(rng):
    roll = rng.random()
    if roll < 0.15:
        return Emp()
    if roll < 0.25:
        return TrueA()
    if roll < 0.30:
        return FalseA()
    if roll < 0.70:
        return PointsTo(addr(rng), value(rng))
    if roll < 0.85:
        return Eq(IntLit(rng.choice(INTS)), IntLit(rng.choice(INTS)))
    return Leq(IntLit(rng.choice(INTS)), IntLit(rng.choice(INTS)))


def assertion(rng, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return atom(rng)
    roll = rng.random()
    a = lambda: assertion(rng, depth - 1)
    if roll < 0.3:
        return Star((a(), a()))
    if roll < 0.5:
        return And((a(), a()))
    if roll < 0.65:
        return Or((a(), a()))
    if roll < 0.8:
        return Implies(a(), a())
    return Triple(a(), SKIP, a())


def pure_assertion(rng):
    roll = rng.random()
    if roll < 0.4:
        return Eq(IntLit(rng.choice(INTS)), IntLit(rng.choice(INTS)))
    if roll < 0.7:
        return Leq(IntLit(rng.choice(INTS)), IntLit(rng.choice(INTS)))
    if roll < 0.85:
        return TrueA()
    return And((pure_assertion_shallow(rng), pure_assertion_shallow(rng)))


def pure_assertion_shallow(rng):
    return Eq(IntLit(rng.choice(INTS)), IntLit(rng.choice(INTS)))


def pseudo_pure(rng):
    roll = rng.random()
    if roll < 0.5:
        return pure_assertion(rng)
    return Triple(assertion(rng, 1), SKIP, assertion(rng, 1))


def valid_assertion(rng):
    """An assertion expected to hold in every world/heap."""
    roll = rng.random()
    A = assertion(rng, 1)
    if roll < 0.2:
        return TrueA()
    if roll < 0.35:
        n = rng.choice(INTS)
        return Eq(IntLit(n), IntLit(n))
    if roll < 0.55:
        P = assertion(rng, 1)
        return Triple(P, SKIP, P)
    if roll < 0.7:
        return Implies(A, Or((A, assertion(rng, 1))))
    if roll < 0.85:
        return Implies(And((A, assertion(rng, 1))), A)
    return Implies(FalseA(), A)


def skip_triple(rng):
    P = assertion(rng, 1)
    return Triple(P, SKIP, P)


def J(goal, hyps=()):
    return Judgement(hyps=tuple(hyps), goal=goal)


# ---------------------------------------------------------------------------
# per-rule instance generators: rng -> (params, premises)


def _spec_cell_emp(rng, e):
    return Exists("z", And((PointsTo(e, Var("z")),
                            Triple(Emp(), Var("z"), Emp()))))


def gen_Skip(rng):
    return {"P": assertion(rng)}, []


def gen_Update(rng):
    return {"e": addr(rng), "e0": value(rng), "P": assertion(rng, 1)}, []


def gen_UpdateInv(rng):
    # a rank-sensitive (pseudo-pure but impure) conjunct is only accepted
    # alongside an integer-valued source expression
    if rng.random() < 0.5:
        e0, phi = value(rng), pure_assertion(rng)
    else:
        e0, phi = IntLit(rng.choice(INTS)), pseudo_pure(rng)
    return {"e": IntLit(1), "e0": e0, "e1": IntLit(2), "phi": phi}, []


def gen_Free(rng):
    return {"e": addr(rng), "P": assertion(rng, 1)}, []


def gen_Seq(rng):
    P = assertion(rng, 1)
    t0 = J(Triple(P, SKIP, P))
    if rng.random() < 0.5:
        t1 = J(Triple(P, SKIP, P))
    else:
        e, v = IntLit(1), value(rng)
        mid = Star((Exists("z", PointsTo(e, Var("z"))), P))
        t0 = J(Triple(mid, SKIP, mid))
        t1 = J(Triple(mid, Quote(Assign(e, v)),
                      Star((PointsTo(e, v), P))))
    return {}, [t0, t1]


def gen_If(rng):
    P = assertion(rng, 1)
    cond = Eq(IntLit(rng.choice(INTS)), IntLit(rng.choice(INTS)))
    t0 = J(Triple(And((P, cond)), SKIP, P))
    t1 = J(Triple(And((P, Implies(cond, FalseA()))), SKIP, P))
    return {}, [t0, t1]


def gen_Deref(rng):
    e = addr(rng)
    P = assertion(rng, 1)
    pre = Star((P, PointsTo(e, Var("x"))))
    return {"x": "x", "e": e}, [J(Triple(pre, SKIP, TrueA()))]


def gen_New(rng):
    inits = [value(rng) for _ in range(rng.choice((1, 2)))]
    P = assertion(rng, 1)
    block = [PointsTo(Var("x") if i == 0
                      else BinOp("+", Var("x"), IntLit(i)), v)
             for i, v in enumerate(inits)]
    pre = star(P, *block)
    return {"x": "x", "init": tuple(inits)}, [J(Triple(pre, SKIP, TrueA()))]


def gen_Eval(rng):
    e = addr(rng)
    P = assertion(rng, 1)
    pre = Star((P, _spec_cell_emp(rng, e)))
    rk = Triple(Emp(), Var("k"), Emp())
    prem = J(Implies(rk, Triple(pre, Var("k"), pre)))
    return {"e": e}, [prem]


def gen_Conseq(rng):
    P, Q = assertion(rng, 1), assertion(rng, 1)
    Pw, Qw = assertion(rng, 1), assertion(rng, 1)
    p0 = J(Implies(And((P, Pw)), P))
    p1 = J(Implies(Q, Or((Q, Qw))))
    return {"e": SKIP}, [p0, p1]


def gen_Disj(rng):
    return {"P": skip_triple(rng), "Q": skip_triple(rng)}, []


def gen_ExistAux(rng):
    t = Triple(PointsTo(addr(rng), Var("x")), SKIP,
               Or((assertion(rng, 1), PointsTo(addr(rng), Var("x")))))
    return {"P": t, "x": "x"}, []


def gen_Invariance(rng):
    return {"P": skip_triple(rng), "psi": pure_assertion(rng)}, []


def gen_TensorFrame(rng):
    return {"R": assertion(rng, 1)}, [J(valid_assertion(rng))]


def gen_StarFrame(rng):
    return {"P": skip_triple(rng), "R": assertion(rng, 1)}, []


def gen_StarAssoc(rng):
    return {"P": assertion(rng, 1), "Q": assertion(rng, 1),
            "R": assertion(rng, 1)}, []


def gen_StarComm(rng):
    return {"P": assertion(rng, 1), "Q": assertion(rng, 1)}, []


gen_StarUnit = gen_StarZero = gen_Skip


def gen_StarOverlap(rng):
    return {"e": addr(rng), "e1": value(rng), "e2": value(rng)}, []


def gen_StarMono(rng):
    A, B = assertion(rng, 1), assertion(rng, 1)
    C, D = assertion(rng, 1), assertion(rng, 1)
    return {}, [J(Implies(And((A, B)), A)), J(Implies(C, Or((C, D))))]


def gen_TensorMono(rng):
    A, B = assertion(rng, 1), assertion(rng, 1)
    return {"R": assertion(rng, 1)}, [J(Implies(A, Or((A, B))))]


def _contractive_mu(rng):
    if rng.random() < 0.5:
        body = Triple(Star((assertion(rng, 1), RelVar("X"))), SKIP,
                      assertion(rng, 1))
    else:
        body = Exists("z", And((PointsTo(addr(rng), Var("z")),
                                Triple(RelVar("X"), Var("z"),
                                       assertion(rng, 1)))))
    return Mu("X", (), body, ())


def gen_MuUnfold(rng):
    return {"P": _contractive_mu(rng)}, []


def gen_RUnique(rng):
    m = _contractive_mu(rng)
    fix = iff(m, unfold_mu(m))
    return {"P": m.body, "X": "X"}, [J(fix), J(fix)]


def gen_DistTriple(rng):
    return {"P": skip_triple(rng), "R": assertion(rng, 1)}, []


def gen_DistTensorTensor(rng):
    P = Tensor(assertion(rng, 1), assertion(rng, 1))
    return {"P": P, "R": assertion(rng, 1)}, []


def gen_DistQuant(rng):
    quant = Exists if rng.random() < 0.5 else Forall
    body = Or((PointsTo(addr(rng), Var("x")), assertion(rng, 1)))
    return {"P": quant("x", body), "R": assertion(rng, 1)}, []


def gen_DistBinOp(rng):
    op = rng.choice((And, Or, Implies, Star))
    return {"P": join(op, assertion(rng, 1), assertion(rng, 1)),
            "R": assertion(rng, 1)}, []


def gen_DistAtom(rng):
    return {"P": atom(rng), "R": assertion(rng, 1)}, []


def gen_Out(rng):
    phi = pseudo_pure(rng)
    P = assertion(rng, 1)
    return {"phi": phi}, [J(Triple(And((phi, P)), SKIP, TrueA()))]


def gen_DiamondOut(rng):
    phi = pseudo_pure(rng)
    P = assertion(rng, 1)
    roll = rng.random()
    post = TrueA() if roll < 0.4 else (P if roll < 0.7
                                       else pure_assertion(rng))
    return {"phi": phi}, [J(Triple(And((phi, P)), SKIP, post))]


gen_DiamondE = gen_Skip


def gen_EvalNonRec1(rng):
    return {"P": assertion(rng, 1), "Q": assertion(rng, 1),
            "e": addr(rng)}, []


gen_EvalNonRecUpd = gen_EvalNonRec1


def gen_EvalRec(rng):
    return {"P": atom(rng), "Q": atom(rng), "e": addr(rng),
            "P0": Emp()}, []


# first-order layer


def gen_Hyp(rng):
    return {"A": assertion(rng)}, []


def gen_ImpI(rng):
    A = assertion(rng, 1)
    goal = A if rng.random() < 0.5 else Or((A, assertion(rng, 1)))
    return {"A": A}, [J(goal, hyps=(A,))]


def gen_ImpE(rng):
    V = valid_assertion(rng)
    B = Or((V, assertion(rng, 1)))
    return {}, [J(Implies(V, B)), J(V)]


def gen_AndI(rng):
    return {}, [J(valid_assertion(rng)), J(valid_assertion(rng))]


def gen_AndE1(rng):
    return {}, [J(And((valid_assertion(rng), valid_assertion(rng))))]


gen_AndE2 = gen_AndE1


def gen_OrI1(rng):
    return {"B": assertion(rng, 1)}, [J(valid_assertion(rng))]


def gen_OrI2(rng):
    return {"A": assertion(rng, 1)}, [J(valid_assertion(rng))]


def gen_OrE(rng):
    A, B = valid_assertion(rng), assertion(rng, 1)
    C = Or((A, B))
    return {}, [J(Or((A, B))), J(C, hyps=(A,)), J(C, hyps=(B,))]


def gen_ForallI(rng):
    P = Implies(PointsTo(addr(rng), Var("x")),
                PointsTo(addr(rng), Var("x"))) \
        if rng.random() < 0.5 else valid_assertion(rng)
    if rng.random() < 0.5:
        a = addr(rng)
        P = Implies(PointsTo(a, Var("x")), PointsTo(a, Var("x")))
    return {"x": "x"}, [J(P)]


def gen_ForallE(rng):
    a = addr(rng)
    body = Implies(PointsTo(a, Var("x")), PointsTo(a, Var("x")))
    return {"witness": value(rng)}, [J(Forall("x", body))]


def gen_ExistsI(rng):
    w = value(rng)
    A = And((TrueA(), Eq(Var("x"), w))) if type(w) is IntLit \
        else Or((Eq(Var("x"), Var("x")), assertion(rng, 1)))
    return {"template": A, "x": "x", "witness": w}, \
        [J(substitute(A, {"x": w}))]


def gen_ExistsE(rng):
    v = IntLit(rng.choice(INTS))
    A = Eq(Var("x"), v)
    C = valid_assertion(rng)
    return {}, [J(Exists("x", A)), J(C, hyps=(A,))]


def gen_TrueI(rng):
    return {}, []


def gen_FalseE(rng):
    return {"P": assertion(rng)}, [J(FalseA(), hyps=(FalseA(),))]


def gen_EqRefl(rng):
    return {"e": value(rng)}, []


def gen_EqSubst(rng):
    n = rng.choice(INTS)
    e1, e2 = IntLit(n), BinOp("+", IntLit(n), IntLit(0))
    a = addr(rng)
    A = Implies(PointsTo(a, Var("x")), PointsTo(a, Var("x")))
    return {"template": A, "x": "x"}, \
        [J(Eq(e1, e2)), J(substitute(A, {"x": e1}))]


def gen_ArithFact(rng):
    n = rng.choice(INTS)
    P = Eq(IntLit(n), IntLit(n)) if rng.random() < 0.5 \
        else Leq(IntLit(min(INTS)), IntLit(n))
    return {"P": P}, []


def gen_Entail(rng):
    A = assertion(rng, 1)
    roll = rng.random()
    if roll < 0.3:
        P, Q = A, TrueA()
    elif roll < 0.6:
        P, Q = And((A, assertion(rng, 1))), A
    elif roll < 0.8:
        P, Q = A, Or((A, assertion(rng, 1)))
    else:
        P, Q = Star((A, Emp())), A
    return {"P": P, "Q": Q}, []


GENERATORS = {name[4:]: fn for name, fn in list(globals().items())
              if name.startswith("gen_")}


# ---------------------------------------------------------------------------
# the driver


@dataclass
class FuzzResult:
    rule: str
    samples: int = 0
    vacuous: int = 0        # a premise failed; nothing to conclude
    errors: int = 0         # instance rejected by schema validation
    checked: int = 0        # all premises passed, conclusion tested
    failures: list = field(default_factory=list)

    @property
    def inconclusive(self):
        return self.vacuous + self.errors

    @property
    def ok(self):
        return not self.failures


def judge(tester, j: Judgement):
    goal = j.goal
    if j.hyps:
        return tester.test_entailment(conj(*j.hyps), goal)
    if type(goal) is Triple:
        return tester.test_triple(goal.pre, goal.code, goal.post)
    if type(goal) is Implies:
        return tester.test_entailment(goal.left, goal.right)
    return tester.test_entailment(TrueA(), goal)


def fuzz_rule(rule: str, tester: Tester, rng: random.Random,
              n: int = 200) -> FuzzResult:
    gen = GENERATORS[rule]
    res = FuzzResult(rule)
    for _ in range(n):
        res.samples += 1
        params, premises = gen(rng)
        try:
            conclusion = apply_rule(rule, params, premises)
        except ProofError as exc:
            res.errors += 1
            continue
        if any(isinstance(judge(tester, p), Fail) for p in premises):
            res.vacuous += 1
            continue
        res.checked += 1
        verdict = judge(tester, conclusion)
        if isinstance(verdict, Fail):
            res.failures.append((params, premises,
                                 conclusion, verdict.witness))
    return res


def fuzz_all(seed: int = 0, n: int = 200, rules=None, tester=None):
    tester = tester or Tester(fuzz_config())
    rng = random.Random(seed)
    out = []
    for rule in sorted(rules or GENERATORS):
        out.append(fuzz_rule(rule, tester, rng, n))
    return out
