"""Reduction and judgmental equality.

``whnf`` and ``normalize`` run one machine, Krivine's call-by-name machine
with environments, as in Coquand (1996) and Kovacs' smalltt.  A closure is a
term in an environment, a tuple of closures whose last entry binds index 0.
Beta pushes the argument's closure onto the body's environment and substitutes
nothing; ``whnf`` reads closures back with ``terms._map_vars``.  Each
contraction (beta per argument, each rule of ``IOTA``, delta) ticks the budget
once; entering a closure or looking a variable up costs nothing.  Call by name,
so an argument is reduced each time it is needed and a count means what it did
when beta substituted.  ``conv`` decides judgmental equality of well-typed
terms on ``whnf``'s terms, with eta for Pi and for no other former.

The theory has no general fixpoints, so every well-typed term normalizes;
the step budget turns a kernel bug or an adversarial input into an error
instead of a hang.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    DEFAULT_MAX_STEPS,
    _OPEN,
    App,
    Const,
    IndCoprod,
    IndEq,
    IndNat,
    IndSigma,
    IndTrunc,
    IndUnit,
    IndW,
    Inl,
    Inr,
    Lambda,
    LocatedError,
    Pair,
    Rec,
    Refl,
    Signature,
    Star,
    Succ,
    Term,
    Tree,
    TruncIn,
    Universe,
    Var,
    Zero,
    _map_vars,
    shift,
    subst,  # unused here, but perfbench/boundary.py's ``_BOUNDARIES`` wraps ``reduce.subst``
    subterms,
)


class BudgetExhausted(LocatedError):
    def __init__(self, steps: int):
        super().__init__(f"reduction budget exhausted after {steps} steps")
        self.steps = steps


@dataclass
class ReductionBudget:
    max_steps: int = DEFAULT_MAX_STEPS
    steps_used: int = 0

    def tick(self) -> None:
        self.steps_used += 1
        if self.steps_used > self.max_steps:
            raise BudgetExhausted(self.steps_used)


def _unfold(sig: Signature, t: Term) -> Term | None:
    """Body of a defined constant, or None when ``t`` is not unfoldable."""
    decl = sig.lookup(t.name) if isinstance(t, Const) else None
    return decl and decl.body


def _close(t: Term, env: tuple) -> tuple:  # ``t`` in ``env``: a bound variable is the closure it names
    return env[-1 - t.index] if type(t) is Var and t.index < len(env) else (t, env)


# Eliminator -> (scrutinee field, constructor -> contraction).  A contraction
# maps the eliminator and the scrutinee's head, each with its environment, to
# the reduct's head, in the eliminator's, and its argument closures, the last
# first.  ``IndEmpty`` has no rule; ``IndW``'s tree waits for a lambda.
IOTA: dict[type, tuple[str, dict]] = {
    IndNat: ("scrutinee", {Zero: lambda t, e, s, se: (t.base, ()),
                           Succ: lambda t, e, s, se: (t.step, (Rec(t, p := _close(s.pred, se), e), p))}),
    IndSigma: ("scrutinee", {Pair: lambda t, e, s, se: (t.step, ((s.snd, se), (s.fst, se)))}),
    IndUnit: ("scrutinee", {Star: lambda t, e, s, se: (t.point, ())}),
    IndCoprod: ("scrutinee", {Inl: lambda t, e, s, se: (t.on_left, ((s.value, se),)),
                              Inr: lambda t, e, s, se: (t.on_right, ((s.value, se),))}),
    IndEq: ("path", {Refl: lambda t, e, s, se: (t.center, ())}),
    IndTrunc: ("scrutinee", {TruncIn: lambda t, e, s, se: (t.point, ((s.value, se),))}),
    IndW: ("scrutinee", {Tree: ("components", {Lambda: lambda t, e, s, se, c, ce: (
        t.step, ((Lambda(c.domain, Rec(t, (c, ce), e)), ce), (c, ce), (s.shape, se)))})}),
}


def _run(sig: Signature, t: Term, env: tuple, budget: ReductionBudget, unfold: bool):
    """Run the machine on ``t`` in ``env`` to a stuck head: ``(head, its env,
    args, frames)``, args the spine's closures (the next last), each frame
    ``(eliminator, its env, IOTA rule, args, frame below)``.  A constant unfolds
    if something waits on it or ``unfold`` is set (``conv`` leaves it unset)."""
    args, frames, tick = [], None, budget.tick
    while True:
        cls = type(t)
        while cls is App:
            args.append(_close(t.arg, env))
            t = t.fn
            cls = type(t)
        if cls is Var and t.index < len(env):
            t, env = env[-1 - t.index]
            continue
        if cls is Lambda and args:
            tick()
            env, t = env + (args.pop(),), t.body
            continue
        rule = IOTA.get(cls)
        if rule is None and frames is not None and not args:
            rule = frames[2][1].get(cls)  # from the top frame's table: a contraction, or IndW's tree's rule
            if rule is not None and type(rule) is not tuple:
                tick()
                elim, elim_env, _, args, frames = frames
                if type(elim) in IOTA:
                    t, pushed = rule(elim, elim_env, t, env)
                else:  # the tree, with IndW waiting below it
                    t, pushed = rule(*frames[:2], elim, elim_env, t, env)
                    elim, elim_env, _, args, frames = frames
                env = elim_env
                args += pushed
                continue
        if rule is not None:
            frames = (t, env, rule, args, frames)
            t, args = getattr(t, rule[0]), []
            continue
        if cls is Rec:
            frames = (t.elim, t.env, IOTA[type(t.elim)], args, frames)
            (t, env), args = t.scrutinee, [env[-1]] if type(t.elim) is IndW else []
            continue
        if cls is not Const or not (unfold or args or frames):
            break
        decl = sig.lookup(t.name)
        if decl is None or decl.body is None:
            break
        tick()
        t, env = decl.body, ()
    return t, env, args, frames


def whnf(sig: Signature, t: Term, budget: ReductionBudget, unfold: bool = False) -> Term:
    """Weak head normal form, ``t`` itself when no step is taken: the machine's
    stuck state read back by ``_map_vars``, the one walker that maps indices to
    terms or to closures, each waiting eliminator around the term reached."""
    if type(t) is not App and type(t) is not Const and type(t) not in IOTA:  # no other head can step
        return t
    steps = budget.steps_used
    head, env, args, frames = _run(sig, t, (), budget, unfold)
    if budget.steps_used == steps:
        return t
    # ``u`` under ``k`` binders of its own, read in ``env``; with nothing to substitute, only a Rec changes
    read = lambda u, env, k=0: u if u._loose <= (k if env else _OPEN) else _map_vars(u, 0, k, env, -len(env))
    t = read(head, env)
    while True:
        while args:
            t = App(t, read(*args.pop()))
        if frames is None:
            return t
        elim, env, (field, _), args, frames = frames
        t = type(elim)(*[t if name == field else read(getattr(elim, name), env, k) for name, k in elim.FIELDS])


def normalize(sig: Signature, t: Term, budget: ReductionBudget) -> Term:
    """Full beta/iota/delta-normal form, ``t`` itself when no step is taken."""
    return _normal(sig, t, (), 0, budget, [()])


def _normal(sig: Signature, t: Term, env: tuple, depth: int, budget: ReductionBudget, ident: list) -> Term:
    """The normal form of ``t`` in ``env``, ``depth`` binders below the root, each
    bound to its de Bruijn level, an int, on which the machine is stuck; a term
    reads back as itself in ``ident[depth]``, which binds them in order."""
    steps, chain = budget.steps_used, []
    while len(ident) < depth + 3:  # the levels of a part's binders, two at most
        ident.append(ident[-1] + ((len(ident) - 1, ()),))
    node, node_env, args, frames = _run(sig, t, env, budget, True)
    while type(node) is Succ and frames is None and not args:
        chain.append((node, node_env))
        node, node_env, args, frames = _run(sig, node.pred, node_env, budget, True)
    field = r = None
    while True:
        if type(node) is int:
            r = Var(depth - 1 - node)
        elif type(node) is Var:
            r = node if len(node_env) == depth else Var(node.index - len(node_env) + depth)
        else:
            parts = []  # a loop, not a comprehension: one frame per level
            for name, k in node.FIELDS:
                part_env = ident[depth + k] if node_env is ident[depth] else node_env + ident[depth + k][depth:]
                parts.append(r if name == field else _normal(sig, getattr(node, name), part_env, depth + k, budget, ident))
            r = type(node)(*parts) if parts else node
        while args:
            r = App(r, _normal(sig, *args.pop(), depth, budget, ident))
        if frames is None:
            break
        node, node_env, (field, _), args, frames = frames
    for succ, succ_env in reversed(chain):
        r = succ if r is succ.pred and (succ._loose == 0 or succ_env is ident[depth]) else Succ(r)
    if budget.steps_used > steps or type(t) is int or t._loose and (env is not ident[depth] or t._loose > _OPEN):
        return r
    return t


def conv(sig: Signature, t1: Term, t2: Term, budget: ReductionBudget) -> bool:
    """Decide judgmental equality of two terms of a common type.

    Both sides are reduced to WHNF and compared head-first; when exactly
    one side is a lambda the other is eta-expanded.  Equal-named constants
    compare equal without unfolding; unfolding happens only on head
    mismatch.
    """
    if t1 == t2:
        return True
    while True:  # here t1 != t2, so a == b is known false when whnf changed neither
        a = whnf(sig, t1, budget)
        b = whnf(sig, t2, budget)
        if (a is not t1 or b is not t2) and a == b:
            return True
        if not (isinstance(a, Succ) and isinstance(b, Succ)):
            break
        t1, t2 = a.pred, b.pred  # matching Succ heads, unequal: compare the predecessors

    if type(a) is type(b):
        if isinstance(a, Const):
            # Same name is definitionally reflexive; different names fall
            # through to delta below.
            if a.name == b.name:
                return True
        elif isinstance(a, (Var, Universe)):
            return a == b
        elif isinstance(a, Lambda):
            # The common type forces the domains; compare bodies.
            return conv(sig, a.body, b.body, budget)
        else:  # one former, so as many subterms on each side
            return all(conv(sig, x, y, budget) for (x, _), (y, _) in zip(subterms(a), subterms(b)))

    if isinstance(a, Lambda) and not isinstance(b, Lambda):
        return conv(sig, a.body, App(shift(b, 0, 1), Var(0)), budget)
    if isinstance(b, Lambda) and not isinstance(a, Lambda):
        return conv(sig, App(shift(a, 0, 1), Var(0)), b.body, budget)

    body = _unfold(sig, a)
    if body is not None:
        return conv(sig, body, b, budget)
    body = _unfold(sig, b)
    if body is not None:
        return conv(sig, a, body, budget)
    return False
