"""``multiplicative._decide`` on synthetic parts, against a direct statement of its rule.

Every part is known, or reads a c = 0 form, a support form and the O(n^3)
code through readers that count their calls. Each case checks the verdict,
the residual (NaN kept, a non-finite one failing) and the route, that every
reader ran at most once, and that no O(n^3) reader ran where the first pass
decided the condition.
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

PART_KINDS = [*KNOWN, *itertools.product(CLOSED, SUPPORT, SLOW)]


class Part:
    """One synthetic part: its forms, and readers that count their calls."""

    def __init__(self, kind, scale: float, calls: Counter, name: str):
        self.kind, self.calls, self.name = kind, calls, name
        if kind in KNOWN:
            self.record = KNOWN[kind]
            return
        closed, support, slow = kind
        c_form = None if closed == "absent" else ("c", name)
        s_form = c_form if support == "same" else None if support == "open" else ("s", name)
        self.verdicts = {c_form: scaled(CLOSED[closed], scale), s_form: scaled(SUPPORT[support], scale)}
        if support == "same":
            self.verdicts[c_form] = scaled(CLOSED[closed], scale)
        self.slow_verdict = scaled(SLOW[slow], scale)
        self.record = (SimpleNamespace(closed=c_form, support=s_form), self.read, self.slow)

    def read(self, form):
        self.calls[self.name, form] += 1
        return self.verdicts[form]

    def slow(self):
        self.calls[self.name, "slow"] += 1
        return self.slow_verdict


def scaled(verdict, scale: float):
    """``verdict`` with its values times ``scale``, so parts differ."""
    return None if verdict is None else (verdict[0], *(v * scale for v in verdict[1:]))


def reference(parts: list[Part]) -> tuple[bool, float, str, bool]:
    """The rule: each part's c = 0 verdict where it passes, else its support
    verdict; where all pass, the worst upper end. Otherwise each part's
    support verdict, else its O(n^3) one, and the worst value; NaN kept, and
    only a finite residual passes. The route is the latest any part took.
    The last item tells whether the first pass decided."""

    def known(part):
        record = part.record
        v = (record <= THRESHOLD, record) if isinstance(record, float) else record
        return (*v, v[1]), 0

    def c_verdict(part):
        form = part.record[0].closed
        return None if form is None else part.verdicts[form]

    def s_verdict(part):
        pair = part.record[0]
        if pair.support is None:
            return None
        return c_verdict(part) if pair.support is pair.closed else part.verdicts[pair.support]

    fast = []
    for part in parts:
        if part.kind in KNOWN:
            fast.append(known(part))
        elif (c := c_verdict(part)) and c[0]:
            fast.append((c, 1))
        else:
            fast.append((s_verdict(part), 2))
    if all(v and v[0] for v, _ in fast):
        got, index = fast, 2
    else:
        got, index = [], 1
        for part in parts:
            if part.kind in KNOWN:
                got.append(known(part))
            elif (s := s_verdict(part)) is not None:
                got.append((s, 2))
            else:
                got.append((part.slow_verdict, 3))
    values = [v[index] for v, _ in got]
    residual = math.nan if any(math.isnan(v) for v in values) else max(values)
    passed = all(v[0] for v, _ in got) and math.isfinite(residual)
    return passed, residual, _ROUTES[max(r for _, r in got)], index == 2


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
    passed, residual, route, first_pass = reference(parts)
    for result in (forward, backward):
        assert result.passed is passed, kinds
        assert same_residual(result.residual, residual), kinds
        assert result.route == route, kinds
    assert all(count == 1 for count in calls.values()), (kinds, calls)
    if first_pass:
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
