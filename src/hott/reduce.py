"""Reduction and judgmental equality.

``whnf`` and ``normalize`` run one machine, Krivine's machine with
environments (Coquand 1996; Kovacs' smalltt), made lazy as Sestoft's mark-2
machine is (JFP 1997).  A closure is a term in an environment, a tuple of
closures whose last entry binds index 0; one that can step is a cell
(``terms.Rec``), forced at most once per ``whnf`` or ``normalize`` call and
then shared: call by need (Launchbury 1993).  Beta binds the argument's
closure in the body's environment and substitutes nothing; ``whnf`` reads
closures back with ``terms._map_vars``, a cell as the closure it was.  The
meter charges what call by name would: each contraction (beta per argument,
each rule of ``IOTA``, delta) ticks the budget once, and each later entry
into a forced cell once per step its value took, so counts and the step at
which a budget runs out are those of substitution.  ``conv`` decides
judgmental equality of well-typed terms on ``whnf``'s terms, with eta for
Pi and for no other former.

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


def _close(t: Term, env: tuple):  # ``t`` in ``env``: a bound variable is the closure it names, a stepping term a cell
    if type(t) is Var:
        return env[-1 - t.index] if t.index < len(env) else (t, env)
    return Rec(None, (t, env), env) if type(t) in _STEPS else (t, env)


# Eliminator -> (scrutinee field, constructor -> contraction).  A contraction
# maps the eliminator and the scrutinee's head, each with its environment, to
# the reduct's head, in the eliminator's, and its argument closures, the last
# first.  ``IndEmpty`` has no rule; ``IndW``'s tree waits for a lambda.
IOTA: dict[type, tuple[str, dict]] = {
    IndNat: ("scrutinee", {Zero: lambda t, e, s, se: (t.base, ()),
                           Succ: lambda t, e, s, se: (t.step, (Rec(t, p := _close(s.pred, se), e), p))}),
    IndSigma: ("scrutinee", {Pair: lambda t, e, s, se: (t.step, (_close(s.snd, se), _close(s.fst, se)))}),
    IndUnit: ("scrutinee", {Star: lambda t, e, s, se: (t.point, ())}),
    IndCoprod: ("scrutinee", {Inl: lambda t, e, s, se: (t.on_left, (_close(s.value, se),)),
                              Inr: lambda t, e, s, se: (t.on_right, (_close(s.value, se),))}),
    IndEq: ("path", {Refl: lambda t, e, s, se: (t.center, ())}),
    IndTrunc: ("scrutinee", {TruncIn: lambda t, e, s, se: (t.point, (_close(s.value, se),))}),
    IndW: ("scrutinee", {Tree: ("components", {Lambda: lambda t, e, s, se, c, ce: (
        t.step, ((Lambda(c.domain, Rec(t, (c, ce), e)), ce), (c, ce), _close(s.shape, se)))})}),
}
_STEPS = {App, Const, *IOTA}  # the heads that can step
_UPDATE = ("", {})  # an update frame's rule, which contracts nothing
# Constructor -> ``v``, itself on variables, which bind a value's fields as the cells they name, shared by each use
_SHARED = {cls: cls(*(Var(i) for i in reversed(range(len(cls.FIELDS))))) for cls in (Pair, Inl, Inr, TruncIn, Tree)}


def _run(sig: Signature, t: Term, env: tuple, budget: ReductionBudget, unfold: bool):
    """Run the machine on ``t`` in ``env`` to a stuck head: ``(head, its env,
    args, frames)``, args the spine's closures (the next last), each frame
    ``(eliminator, its env, IOTA rule, args, frame below)``.  A constant unfolds
    if something waits on it or ``unfold`` is set (``conv`` leaves it unset).
    Entering a cell pushes an update frame, ``(cell, steps, _UPDATE, args, frame
    below)``: the head reached with no args above it is the cell's value, a
    constant too when ``unfold`` is unset, as what waits below decides whether
    it unfolds.  Entering a forced cell continues at its value.  A state stuck
    inside a forcing keeps its update frames, each read back as its args."""
    args, frames, tick = [], None, budget.tick
    while True:
        cls = type(t)
        while cls is App:
            args.append(_close(t.arg, env))
            t = t.fn
            cls = type(t)
        if cls is Var and t.index < len(env):
            t = env[-1 - t.index]
            if type(t) is tuple:  # else a cell, which sets its own env
                t, env = t
            continue
        if cls is Lambda and args:
            tick()
            env, t = env + (args.pop(),), t.body
            continue
        if cls is Rec:
            if t.value is not None:  # forced: charged again the steps its value took
                t, env, steps = t.value
                for _ in range(steps):
                    tick()
                continue
            if type(t.elim) is not IndW:  # IndW's recursive call, applied under its lambda, is no cell
                frames, args = (t, budget.steps_used, _UPDATE, args, frames), []
            if t.elim is not None:
                frames = (t.elim, t.env, IOTA[type(t.elim)], args, frames)
            (t, env), args = t.scrutinee, [env[-1]] if type(t.elim) is IndW else []
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
        if cls is Const and (unfold or args or frames is not None and frames[2] is not _UPDATE):
            decl = sig.lookup(t.name)
            if decl is not None and decl.body is not None:
                tick()
                t, env = decl.body, ()
                continue
        if args or frames is None or frames[2] is not _UPDATE:
            break
        if cls in _SHARED:  # a constructor's fields become cells of the value; ``u, e``: no closure over ``t, env``
            t, env = _SHARED[cls], tuple([_close(getattr(u, name), e) for u, e in [(t, env)] for name, _ in u.FIELDS])
        while not args and frames is not None and frames[2] is _UPDATE:  # the value of each cell forced here
            cell, steps, _, args, frames = frames
            cell.value = t, env, budget.steps_used - steps
        if not args and frames is None:
            break
    return t, env, args, frames


def whnf(sig: Signature, t: Term, budget: ReductionBudget, unfold: bool = False) -> Term:
    """Weak head normal form, ``t`` itself when no step is taken: the machine's
    stuck state read back by ``_map_vars``, the one walker that maps indices to
    terms or to closures, each waiting eliminator around the term reached."""
    if type(t) not in _STEPS:
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
        if type(elim) is not Rec:  # a cell's update frame, which leaves its args
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
        elif type(node) is not Rec:  # a cell's update frame leaves its args
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
    one side is a lambda the other is eta-expanded.  Equal terms, equal-named
    constants among them, compare equal by ``==`` without unfolding, before
    ``whnf`` and again after it; unfolding happens only on head mismatch.
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

    if type(a) is type(b) and a.FIELDS:  # a != b: compare the parts; unequal leaves fall through to eta and delta
        if isinstance(a, Lambda):  # the common type forces the domains; compare bodies
            return conv(sig, a.body, b.body, budget)
        return all(conv(sig, x, y, budget) for (x, _), (y, _) in zip(subterms(a), subterms(b)))

    if isinstance(a, Lambda):
        return conv(sig, a.body, App(shift(b, 0, 1), Var(0)), budget)
    if isinstance(b, Lambda):
        return conv(sig, App(shift(a, 0, 1), Var(0)), b.body, budget)

    body = _unfold(sig, a)
    if body is not None:
        return conv(sig, body, b, budget)
    body = _unfold(sig, b)
    if body is not None:
        return conv(sig, a, body, budget)
    return False
