"""Normalization by evaluation (NBE): the performance normalizer.

The Section 5 upper-bound proofs rely on "an evaluator of programs, which
uses reduction plus specialized data structures" rather than naive term
rewriting.  This module is that evaluator's engine: terms are *evaluated*
into a semantic domain of closures and neutral applications (with
call-by-need thunks, so shared subcomputations run once), and normal forms
are *read back* from values.  The result is always the beta-delta-let
normal form — identical, up to alpha, to what the small-step engine of
:mod:`repro.lam.reduce` produces (Church-Rosser), but typically
exponentially faster on list-iteration workloads because environments share
structure instead of copying terms under substitution.

The domain:

* ``_Closure``   — an unapplied ``λx. body`` paired with its environment;
* ``_Neutral``   — a variable, constant, or ``Eq`` applied to a spine of
  values (stuck applications);
* delta is implemented at application time: when an ``Eq`` neutral receives
  its second constant argument, it collapses to a Church boolean value.

Every evaluation carries a per-call :class:`_StepCounter`: one step per
closure/native application (beta), per delta collapse, and per ``let``
binding.  The count is what the static cost analysis
(:mod:`repro.analysis.cost`) upper-bounds, and an optional ``fuel`` budget
turns the counter into an enforced limit (raising
:class:`~repro.errors.FuelExhausted`), so the service runtime can budget
NBE requests the same way it budgets the small-step engines.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

from repro.errors import FuelExhausted, ReductionError
from repro.lam.terms import (
    Abs,
    App,
    Const,
    EqConst,
    Let,
    Term,
    Var,
    free_vars,
)


class _StepCounter:
    """Per-normalization work meter, optionally budget-enforcing.

    The kind-discriminating hooks (``tick_beta``/``tick_delta``/
    ``tick_let``) alias :meth:`tick` here, so the unprofiled hot path
    costs exactly what it always did; :class:`_ProfilingCounter` overrides
    them to record the breakdown an ``observer`` asked for.
    """

    __slots__ = ("steps", "limit")

    def __init__(self, limit: Optional[int] = None):
        self.steps = 0
        self.limit = limit

    def tick(self) -> None:
        self.steps = current = self.steps + 1
        limit = self.limit
        if limit is not None and current > limit:
            raise FuelExhausted(current)

    tick_beta = tick
    tick_delta = tick
    tick_let = tick

    def begin_quote(self) -> None:
        """Called once when evaluation ends and readback begins."""

    def note_depth(self, level: int) -> None:
        """Called with the current readback binder depth."""

    def snapshot(self) -> dict:
        return {"steps": self.steps}


class _ProfilingCounter(_StepCounter):
    """A step counter that also attributes steps to beta/delta/let, flags
    the readback ("quote") phase, and tracks the binder-depth watermark."""

    __slots__ = ("beta", "delta", "let", "quote", "in_quote", "max_depth")

    def __init__(self, limit: Optional[int] = None):
        super().__init__(limit)
        self.beta = 0
        self.delta = 0
        self.let = 0
        self.quote = 0
        self.in_quote = False
        self.max_depth = 0

    # The fuel check is inlined (rather than delegated to ``tick``) so the
    # profiled path costs one method call per step, like the plain one.

    def tick_beta(self) -> None:
        self.beta += 1
        if self.in_quote:
            self.quote += 1
        self.steps = current = self.steps + 1
        limit = self.limit
        if limit is not None and current > limit:
            raise FuelExhausted(current)

    def tick_delta(self) -> None:
        self.delta += 1
        if self.in_quote:
            self.quote += 1
        self.steps = current = self.steps + 1
        limit = self.limit
        if limit is not None and current > limit:
            raise FuelExhausted(current)

    def tick_let(self) -> None:
        self.let += 1
        if self.in_quote:
            self.quote += 1
        self.steps = current = self.steps + 1
        limit = self.limit
        if limit is not None and current > limit:
            raise FuelExhausted(current)

    def begin_quote(self) -> None:
        self.in_quote = True

    def note_depth(self, level: int) -> None:
        if level > self.max_depth:
            self.max_depth = level

    def snapshot(self) -> dict:
        return {
            "steps": self.steps,
            "beta": self.beta,
            "delta": self.delta,
            "let": self.let,
            "quote": self.quote,
            "max_depth": self.max_depth,
        }


class _Thunk:
    """A memoized delayed value (call-by-need): the evaluation of ``term``
    in ``env``, run at most once.

    The suspended term and environment are kept as data rather than in a
    host closure, so :func:`_eval` can continue into a thunk it demands in
    its own loop instead of forcing it recursively.
    """

    __slots__ = ("_term", "_env", "_counter", "_value", "_forced")

    def __init__(self, term: Term, env: "_Env", counter: _StepCounter):
        self._term = term
        self._env = env
        self._counter = counter
        self._value: Optional[Value] = None
        self._forced = False

    @staticmethod
    def of(value: "Value") -> "_Thunk":
        thunk = _Thunk.__new__(_Thunk)
        thunk._value = value
        thunk._forced = True
        thunk._env = None
        return thunk

    def force(self) -> "Value":
        if not self._forced:
            # _eval resolves this thunk when its loop ends.
            _eval(self._term, self._env, self._counter, self)
        return self._value

    def _resolve(self, value: "Value") -> None:
        self._value = value
        self._forced = True
        self._env = None  # free what the suspension captured


# Environments are persistent association structures: (name, thunk, parent).
_Env = Optional[Tuple[str, _Thunk, "_Env"]]


def _env_lookup(env: _Env, name: str) -> Optional[_Thunk]:
    while env is not None:
        if env[0] == name:
            return env[1]
        env = env[2]
    return None


@dataclass
class _Closure:
    """Value of an abstraction: body waiting for an argument."""

    var: str
    body: Term
    env: _Env

    def apply(self, argument: _Thunk, counter: _StepCounter) -> "Value":
        return _eval(self.body, (self.var, argument, self.env), counter)


@dataclass
class _Native:
    """A value defined by a host-language function (used for the delta rule's
    Church booleans)."""

    fn: Callable[[_Thunk], "Value"]

    def apply(self, argument: _Thunk, counter: _StepCounter) -> "Value":
        return self.fn(argument)


@dataclass
class _Pick:
    """A Church boolean applied to its first argument: applied to a second,
    it yields ``chosen`` (true), or that second argument when ``chosen``
    is None (false).  :func:`_eval` continues into the picked branch in
    its own loop."""

    chosen: Optional[_Thunk]


@dataclass
class _Neutral:
    """A stuck application: ``head`` is a free variable, a constant, or Eq;
    ``spine`` is the (already evaluated or delayed) argument list."""

    head: Term
    spine: Tuple[_Thunk, ...]


Value = Union[_Closure, _Native, _Pick, _Neutral]


def _true_value() -> Value:
    return _Native(_Pick)


def _false_value() -> Value:
    return _Native(lambda x: _Pick(None))


def _apply(fn: Value, argument: _Thunk, counter: _StepCounter) -> Value:
    if isinstance(fn, (_Closure, _Native)):
        counter.tick_beta()
        return fn.apply(argument, counter)
    if isinstance(fn, _Pick):
        counter.tick_beta()
        return (argument if fn.chosen is None else fn.chosen).force()
    if isinstance(fn, _Neutral):
        spine = fn.spine + (argument,)
        # Delta rule: Eq o_i o_j collapses once both constants are present.
        if isinstance(fn.head, EqConst) and len(spine) == 2:
            left = spine[0].force()
            right = spine[1].force()
            if isinstance(left, _Neutral) and isinstance(right, _Neutral):
                if (
                    isinstance(left.head, Const)
                    and not left.spine
                    and isinstance(right.head, Const)
                    and not right.spine
                ):
                    counter.tick_delta()
                    if left.head.name == right.head.name:
                        return _true_value()
                    return _false_value()
        return _Neutral(fn.head, spine)
    raise ReductionError(f"cannot apply value {fn!r}")


def _eval(
    term: Term,
    env: _Env,
    counter: _StepCounter,
    thunk: Optional[_Thunk] = None,
) -> Value:
    """Evaluate ``term`` in ``env``; resolve ``thunk`` (the suspension
    being forced, if any) to the result.

    Tail positions loop instead of recursing: a closure body, a ``let``
    body, a picked boolean branch, and an unforced thunk the term demands.
    So a chain of thunks each demanding the next — a filter whose rows
    keep failing hands back its accumulator, row after row — costs no
    host stack.  Every thunk continued into is resolved when the loop
    ends; none is if evaluation raises, so a later force starts over.
    """
    pending = None if thunk is None else [thunk]
    while True:
        if isinstance(term, Var):
            thunk = _env_lookup(env, term.name)
            if thunk is None:
                value: Value = _Neutral(term, ())
                break
        elif isinstance(term, (Const, EqConst)):
            value = _Neutral(term, ())
            break
        elif isinstance(term, Abs):
            value = _Closure(term.var, term.body, env)
            break
        elif isinstance(term, App):
            fn_value = _eval(term.fn, env, counter)
            argument = _Thunk(term.arg, env, counter)
            if isinstance(fn_value, _Closure):
                # Tail-call into the closure body instead of recursing: keeps
                # Python stack depth proportional to term depth, not to the
                # number of beta steps.
                counter.tick_beta()
                env = (fn_value.var, argument, fn_value.env)
                term = fn_value.body
                continue
            if not isinstance(fn_value, _Pick):
                value = _apply(fn_value, argument, counter)
                break
            counter.tick_beta()
            thunk = argument if fn_value.chosen is None else fn_value.chosen
        elif isinstance(term, Let):
            counter.tick_let()
            env = (term.var, _Thunk(term.bound, env, counter), env)
            term = term.body
            continue
        else:
            raise TypeError(f"not a term: {term!r}")
        # Demand ``thunk``: its value, or continue into its suspension.
        if thunk._forced:
            value = thunk._value  # type: ignore[assignment]
            break
        if pending is None:
            pending = [thunk]
        else:
            pending.append(thunk)
        term, env = thunk._term, thunk._env
    if pending is not None:
        for thunk in pending:
            thunk._resolve(value)
    return value


def _quote(value: Value, supply: "_FreshNames", counter: _StepCounter) -> Term:
    if isinstance(value, (_Closure, _Native, _Pick)):
        name = supply.fresh()
        counter.note_depth(supply.level)
        fresh_var = _Thunk.of(_Neutral(Var(name), ()))
        body = _quote(_apply(value, fresh_var, counter), supply, counter)
        supply.release()
        return Abs(name, body)
    if isinstance(value, _Neutral):
        result: Term = value.head
        for argument in value.spine:
            result = App(result, _quote(argument.force(), supply, counter))
        return result
    raise ReductionError(f"cannot quote value {value!r}")


class _FreshNames:
    """Level-indexed fresh names ``base0, base1, ...`` for readback."""

    def __init__(self, base: str):
        self.base = base
        self.level = 0

    def fresh(self) -> str:
        name = f"{self.base}{self.level}"
        self.level += 1
        return name

    def release(self) -> None:
        self.level -= 1


def nbe_normalize_counted(
    term: Term,
    max_depth: int = 600_000,
    fuel: Optional[int] = None,
    observer: Optional[Callable[[dict], None]] = None,
) -> Tuple[Term, int]:
    """Normalize ``term`` and report how many evaluation steps it took.

    A "step" is a beta application (closure entry), a delta collapse, or a
    ``let`` binding — the NBE analogue of the small-step engine's counted
    redexes, including the work done during readback.  With ``fuel`` set,
    normalization raises :class:`~repro.errors.FuelExhausted` as soon as
    the step count would exceed the budget.

    ``observer``, when given, selects the profiling counter and is invoked
    exactly once with the step breakdown dict (``steps``/``beta``/
    ``delta``/``let``/``quote``/``max_depth`` — see
    :mod:`repro.obs.profiler`), on completion *and* on fuel exhaustion
    (with the partial counts), never on other errors.  The total step
    count is identical with and without an observer.
    """
    base = "v"
    free = free_vars(term)
    while any(
        name.startswith(base) and name[len(base):].isdigit() for name in free
    ):
        base += "_"
    # Ratchet the recursion limit up, never back down: restoring a lower
    # limit from a nested normalization while an outer computation is still
    # deep would be unsound, and the churn confuses test tooling.
    if sys.getrecursionlimit() < max_depth:
        sys.setrecursionlimit(max_depth)
    counter = (
        _ProfilingCounter(fuel) if observer is not None else _StepCounter(fuel)
    )
    try:
        value = _eval(term, None, counter)
        counter.begin_quote()
        normal_form = _quote(value, _FreshNames(base), counter)
    except FuelExhausted:
        if observer is not None:
            observer(counter.snapshot())
        raise
    if observer is not None:
        observer(counter.snapshot())
    return normal_form, counter.steps


def nbe_normalize(
    term: Term,
    max_depth: int = 600_000,
    fuel: Optional[int] = None,
) -> Term:
    """Normalize ``term`` via evaluation and readback.

    Produces the beta-delta-let normal form (alpha-equal to the output of
    :func:`repro.lam.reduce.normalize`); bound variables in the result are
    renamed to a fresh ``v<level>`` scheme that avoids the term's free
    variables.  ``fuel``, when given, bounds the evaluation step count (see
    :func:`nbe_normalize_counted`).
    """
    normal_form, _ = nbe_normalize_counted(term, max_depth=max_depth, fuel=fuel)
    return normal_form
