"""End-to-end acceptance gate.

One test per entry of the registry in ``weildec.criteria``, named after
its check (``test_criterion_14_omega_generators``).  Each prints the
criterion's PASS/FAIL line and asserts it passed.
"""

from weildec.criteria import REGISTRY, line


def _case(criterion):
    def test():
        ok, detail = criterion.check()
        text = line(criterion, ok, detail)
        print(text)
        assert ok, text

    test.__name__ = test.__qualname__ = f"test_{criterion.check.__name__}"
    return test


for _criterion in REGISTRY:
    _test = _case(_criterion)
    globals()[_test.__name__] = _test
del _criterion, _test


def test_registry_numbers_criteria_one_to_seventeen_in_order():
    assert [c.number for c in REGISTRY] == list(range(1, 18))
    names = [c.name for c in REGISTRY]
    assert len(set(names)) == len(names)
