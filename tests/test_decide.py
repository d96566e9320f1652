"""``multiplicative._decide`` on synthetic parts, against a direct statement of its rule.

Every part is known, or reads a c = 0 form, a support form, an O(n^2)
bound and the O(n^3) code through readers that count their calls. Each case
checks the verdict, the residual (NaN kept, a non-finite one failing) and
the route; that every reader ran at most once; and that no part read its
support form where rung 0 decided it or its condition, nor the O(n^3) code
where rung 0 or rung 1 did.
"""

import itertools
import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from schurlab import multiplicative
from schurlab.multiplicative import _ROUTES, ConditionResult, _decide, _Part, _Span

THRESHOLD = 1.0

# a reader's output: a verdict (passed, residual), a residual for the
# threshold, or None where a form leaves the part open
CLOSED = {"pass": (True, 0.5), "fail": (False, 2.5), "open": None, "absent": None}
SUPPORT = {"pass": (True, 0.375), "fail": (False, 2.0), "open": None, "same": None}
SLOW = {"pass": (True, 0.0625), "fail": (False, 4.0), "nan": (False, math.nan), "inf": (True, math.inf), "residual": 3.5}
KNOWN = {"known pass": (True, 0.75), "known fail": (False, 5.0), "known residual": 0.875}
# only a finite failure decides; scaled by at most 3, "below" stays below the threshold
BOUND = {"open": None, "below": 0.25, "fail": 6.0, "verdict": (False, 1.5), "nan": math.nan, "inf": math.inf}

# parts without a bound, and parts with one
PART_KINDS = [*KNOWN, *itertools.product(CLOSED, SUPPORT, SLOW)]
BOUND_KINDS = [*KNOWN, *itertools.product(CLOSED, SUPPORT, SLOW, BOUND)]

KNOWN_ROUTE, CLOSED_ROUTE, BOUND_ROUTE, SUPPORT_ROUTE, LAPACK_ROUTE = range(5)


class Part:
    """One synthetic part: its forms, and readers that count their calls."""

    def __init__(self, kind, scale: float, calls: Counter, name: str):
        self.kind, self.calls, self.name = kind, calls, name
        if kind in KNOWN:
            self.record = scaled(KNOWN[kind], scale)
            return
        closed, support, slow, *bound = kind
        self.closed = None if closed == "absent" else ("c", name)
        self.support = self.closed if support == "same" else None if support == "open" else ("s", name)
        self.clean = support == "same"
        # on a clean split the support form is the c = 0 form, and reads as that
        self.verdicts = {self.support: scaled(SUPPORT[support], scale), self.closed: scaled(CLOSED[closed], scale)}
        self.slow_verdict = scaled(SLOW[slow], scale)
        self.bound_value = scaled(BOUND[bound[0]], scale) if bound else None
        forms = SimpleNamespace(clean=self.clean, support=self.support)
        self.record = _Part(self.closed, forms, self.read, self.slow, self.bound if bound else None)

    def read(self, form):
        self.calls[self.name, form] += 1
        return self.verdicts[form]

    def slow(self):
        self.calls[self.name, "slow"] += 1
        return self.slow_verdict

    def bound(self):
        self.calls[self.name, "bound"] += 1
        return self.bound_value


def scaled(v, scale: float):
    """A reader's output with its values times ``scale``, so parts differ."""
    return v * scale if isinstance(v, float) else v and (v[0], v[1] * scale)


def judge(v):
    return (v <= THRESHOLD, v) if isinstance(v, float) else v


def reference(parts: list[Part]) -> tuple[bool, float, str, dict]:
    """The rule. Rung 0: a known verdict; the c = 0 verdict where it passes,
    or either way on a clean split; the bound where it fails finitely. Rung
    1: the support verdict; rung 2: the O(n^3) one. The condition stops at
    the first rung where a part fails, failing with the worst failure read
    there, or where every part is decided, passing with the worst residual.
    NaN is kept, only a finite residual passes, and the route is the latest
    the counted parts took. The last item maps each part to the last rung it
    reached: the one that decided it, or the one where the condition stopped."""

    def at(part, k):
        if part.kind in KNOWN:
            return judge(part.record), KNOWN_ROUTE
        c = part.verdicts[part.closed] if part.closed else None
        if k == 0 and c and (c[0] or part.clean):
            return c, CLOSED_ROUTE if c[0] else SUPPORT_ROUTE
        b = judge(part.bound_value)
        if k == 0:
            return ((False, b[1]), BOUND_ROUTE) if b and not b[0] and math.isfinite(b[1]) else None
        if k == 1:
            v = part.verdicts[part.support] if part.support else None
            return v and (v, SUPPORT_ROUTE)
        return judge(part.slow_verdict), LAPACK_ROUTE

    passed, left, reached = [], parts, {}
    for k in range(3):
        got = [(part, at(part, k)) for part in left]
        reached.update((part.name, k) for part in left)
        failed = [v for _, v in got if v and not v[0][0]]
        passed += [v for _, v in got if v and v[0][0]]
        left = [part for part, v in got if v is None]
        if failed or not left:
            break
    residuals = [v[1] for v, _ in failed or passed]
    residual = math.nan if any(math.isnan(v) for v in residuals) else max(residuals)
    return not failed and math.isfinite(residual), residual, _ROUTES[max(r for _, r in failed or passed)], reached


def run(kinds) -> tuple[ConditionResult, ConditionResult, Counter, list[Part]]:
    """Decide two conditions over the same parts, the second in reverse
    order, so every memo is shared."""
    calls = Counter()
    parts = [Part(kind, 1.0 + k, calls, f"p{k}") for k, kind in enumerate(kinds)]
    names = [part.name for part in parts]
    table = {"forward": ("t", *names), "backward": ("t", *reversed(names))}
    results = _decide(table, {"t": THRESHOLD}, {part.name: part.record for part in parts})
    return results["forward"], results["backward"], calls, parts


def same_residual(got: float, want: float) -> bool:
    return got == want or (math.isnan(got) and math.isnan(want))


def check(kinds) -> None:
    forward, backward, calls, parts = run(kinds)
    passed, residual, route, reached = reference(parts)
    for result in (forward, backward):
        assert result.passed is passed, kinds
        assert same_residual(result.residual, residual), kinds
        assert result.route == route, kinds
    assert all(count == 1 for count in calls.values()), (kinds, calls)
    # a read at rung 1 (support form) or 2 (O(n^3) code) only where the part got that far
    for name, reader in calls:
        assert (2 if reader == "slow" else 1 if reader == ("s", name) else 0) <= reached[name], (kinds, calls)


@pytest.mark.parametrize("kind", PART_KINDS, ids=str)
def test_one_part(kind):
    check([kind])


@pytest.mark.parametrize("first", PART_KINDS, ids=str)
def test_two_parts(first):
    for second in PART_KINDS:
        check([first, second])


def test_three_parts_sampled():
    rng = random.Random(26)
    for _ in range(3000):
        check([rng.choice(PART_KINDS) for _ in range(3)])


@pytest.mark.parametrize("bound", BOUND)
def test_one_part_with_a_bound(bound):
    for kind in itertools.product(CLOSED, SUPPORT, SLOW):
        check([(*kind, bound)])


def test_parts_with_bounds_sampled():
    rng = random.Random(28)
    for _ in range(6000):
        check([rng.choice(BOUND_KINDS) for _ in range(rng.randint(1, 3))])


def test_a_failing_bound_fails_its_condition_before_any_form_or_lapack():
    # the first part's bound fails it: the second, open on its c = 0 form,
    # reads only its bound, and neither reads a support form or LAPACK
    calls = Counter()
    parts = [Part(kind, 1.0 + k, calls, f"p{k}") for k, kind in enumerate(
        [("absent", "fail", "fail", "fail"), ("absent", "pass", "pass", "open")]
    )]
    results = _decide({"c": ("t", "p0", "p1")}, {"t": THRESHOLD}, {p.name: p.record for p in parts})
    assert results["c"] == ConditionResult(False, 6.0) and results["c"].route == "bound"
    assert calls == Counter({("p0", "bound"): 1, ("p1", "bound"): 1})


def test_a_support_form_that_is_the_c_0_form_is_read_once():
    # a clean split's support form is its c = 0 form: each is read once, and a
    # part whose c = 0 verdict is open goes to the O(n^3) code
    _, _, calls, _ = run([("pass", "same", "pass"), ("open", "same", "fail")])
    assert calls == Counter({("p0", ("c", "p0")): 1, ("p1", ("c", "p1")): 1, ("p1", "slow"): 1})
    result, _, calls, _ = run([("absent", "same", "pass"), ("pass", "same", "fail")])
    assert result.route == "lapack" and calls[("p1", "slow")] == 0


def test_a_shared_part_is_judged_at_each_conditions_threshold():
    # one part in two conditions at two thresholds: the memo keeps what each
    # reader returned, and each condition judges it against its own
    # threshold. A clean split's span passes the loose condition on the c = 0
    # form and fails the tight one there; a residual from LAPACK likewise
    calls = Counter()

    def counted(name, value):
        def reader(*args):
            calls[name] += 1
            return value

        return reader

    span = _Span(0.5, 0.25, 0.75)
    parts = {
        "span": _Part(span, SimpleNamespace(clean=True, support=span), counted("span", span), counted("slow", 0.0)),
        "residual": _Part(None, None, None, counted("lapack", 0.5)),
    }
    table = {f"{part} {key}": (key, part) for part in parts for key in ("loose", "tight")}
    results = _decide(table, {"loose": 1.0, "tight": 0.125}, parts)
    assert results["span loose"] == ConditionResult(True, 0.75) and results["span loose"].route == "closed"
    assert results["span tight"] == ConditionResult(False, 0.5) and results["span tight"].route == "support"
    assert results["residual loose"] == ConditionResult(True, 0.5)
    assert results["residual tight"] == ConditionResult(False, 0.5)
    assert calls == Counter({"span": 1, "lapack": 1})


def test_a_decided_condition_result_stands_for_its_condition():
    decided = ConditionResult(False, 3.0)
    table = {"cocycle": ("t", "cocycle"), "again": ("t", "cocycle")}
    results = _decide(table, {"t": THRESHOLD}, {"cocycle": decided})
    assert results["cocycle"] is decided and results["again"] is decided
    assert decided.route == "known"


def test_route_takes_no_part_in_equality_or_serialization():
    a, b = ConditionResult(True, 0.5, "closed"), ConditionResult(True, 0.5, "lapack")
    assert a == b
    assert a.to_dict() == {"pass": True, "residual": 0.5}
    assert multiplicative.ConditionResult(True, 0.5).route == "known"
