"""``multiplicative._decide`` on synthetic parts, against a direct statement of its rule.

Every part is known, or reads a c = 0 form, a support form, an O(n^2)
bound and the O(n^3) code through readers that count their calls. Each case
checks the verdict, the residual (NaN kept, a non-finite one failing) and
the route, that every reader ran at most once, and that no O(n^3) reader ran
where the first pass, or a part's first step failing it, decided the
condition.
"""

import itertools
import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from schurlab import multiplicative
from schurlab.multiplicative import _ROUTES, ConditionResult, _decide

THRESHOLD = 1.0

# a form's verdict: (passed, value, upper end), or None where the form leaves the part open
CLOSED = {"pass": (True, 0.25, 0.5), "open": None, "absent": None}
SUPPORT = {"pass": (True, 0.125, 0.375), "fail": (False, 2.0, 3.0), "open": None, "same": None}
SLOW = {"pass": (True, 0.0625), "fail": (False, 4.0), "nan": (False, math.nan), "inf": (True, math.inf)}
KNOWN = {"known pass": (True, 0.75), "known fail": (False, 5.0), "known residual": 0.875}
# a bound's output: a residual for the threshold, a failing verdict, or None; only
# a finite failure decides. Scaled by at most 3, "below" stays below the threshold
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
            self.record = KNOWN[kind]
            return
        closed, support, slow, *bound = kind
        c_form = None if closed == "absent" else ("c", name)
        s_form = c_form if support == "same" else None if support == "open" else ("s", name)
        self.verdicts = {c_form: scaled(CLOSED[closed], scale), s_form: scaled(SUPPORT[support], scale)}
        if support == "same":
            self.verdicts[c_form] = scaled(CLOSED[closed], scale)
        self.slow_verdict = scaled(SLOW[slow], scale)
        self.bound_value = BOUND[bound[0]] if bound else None
        if isinstance(self.bound_value, float):
            self.bound_value *= scale
        else:
            self.bound_value = scaled(self.bound_value, scale)
        pair = SimpleNamespace(closed=c_form, support=s_form, clean=support == "same")
        self.record = (pair, self.read, self.slow, self.bound if bound else None)

    def read(self, form):
        self.calls[self.name, form] += 1
        return self.verdicts[form]

    def slow(self):
        self.calls[self.name, "slow"] += 1
        return self.slow_verdict

    def bound(self):
        self.calls[self.name, "bound"] += 1
        return self.bound_value


def scaled(verdict, scale: float):
    """``verdict`` with its values times ``scale``, so parts differ."""
    return None if verdict is None else (verdict[0], *(v * scale for v in verdict[1:]))


def reference(parts: list[Part]) -> tuple[bool, float, str, str]:
    """The rule. A part's first step is its known verdict, its c = 0 verdict
    where that passes, the c = 0 verdict where the support form is the c = 0
    form, or its bound where that is a finite failure; its second step its
    support verdict where the first left it open or passed on the c = 0 form;
    its last the O(n^3) verdict where the second left it open. Where each
    part passes on its first two steps, the condition passes with the worst
    upper end. Otherwise, where some part fails on its first step, it fails
    with the worst of those; else the parts the first step left open take
    their last step, and it fails with the worst of their failures; else it
    is every part's last verdict, with the worst value. NaN is kept, only a
    finite residual passes, and the route is the latest the counted parts
    took. The last item names how it was decided."""

    def first_step(part):
        if part.kind in KNOWN:
            record = part.record
            v = (record <= THRESHOLD, record) if isinstance(record, float) else record
            return (*v, v[1]), KNOWN_ROUTE
        pair = part.record[0]
        c = None if pair.closed is None else part.verdicts[pair.closed]
        if c and c[0]:
            return c, CLOSED_ROUTE
        if pair.clean and c is not None:
            return c, SUPPORT_ROUTE
        b = part.bound_value
        if isinstance(b, float):
            b = (b <= THRESHOLD, b)
        if b is not None and not b[0] and math.isfinite(b[1]):
            return (False, b[1], b[1]), BOUND_ROUTE
        return None, BOUND_ROUTE

    def second_step(part):
        v, r = first_step(part)
        if v is not None and r != CLOSED_ROUTE:
            return v, r
        pair = part.record[0]
        if not pair.clean:
            v = None if pair.support is None else part.verdicts[pair.support]
        return v, SUPPORT_ROUTE

    def last_step(part):
        v, r = second_step(part)
        return (v, r) if v is not None else (part.slow_verdict, LAPACK_ROUTE)

    def failing(got):
        return [(v, r) for v, r in got if v is not None and not v[0]]

    fast = []
    for part in parts:
        v, r = first_step(part)
        fast.append((v, r) if v is not None else second_step(part))
    if all(v and v[0] for v, _ in fast):
        got, index, how = fast, 2, "first"
    elif bad := failing([first_step(part) for part in parts]):
        got, index, how = bad, 1, "first step"
    elif bad := failing([last_step(part) for part in parts if first_step(part)[0] is None]):
        got, index, how = bad, 1, "open"
    else:
        got = [last_step(part) for part in parts]
        got, index, how = failing(got) or got, 1, "all"
    values = [v[index] for v, _ in got]
    residual = math.nan if any(math.isnan(v) for v in values) else max(values)
    passed = all(v[0] for v, _ in got) and math.isfinite(residual)
    return passed, residual, _ROUTES[max(r for _, r in got)], how


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
    passed, residual, route, how = reference(parts)
    for result in (forward, backward):
        assert result.passed is passed, kinds
        assert same_residual(result.residual, residual), kinds
        assert result.route == route, kinds
    assert all(count == 1 for count in calls.values()), (kinds, calls)
    if how in ("first", "first step"):
        assert not any(key[1] == "slow" for key in calls), kinds


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
