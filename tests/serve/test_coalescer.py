"""The pure half of coalescing: compat keys and batch planning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.stopping import StoppingCriterion
from repro.registry import (
    available_methods,
    batched_methods,
    method_entry,
    warmstartable_methods,
)
from repro.serve import compat_key, plan_batches
from repro.serve.coalescer import UNBATCHABLE_OPTIONS
from repro.sparse import poisson1d, poisson2d


@pytest.fixture
def a():
    return poisson2d(6)


@pytest.fixture
def b(a):
    return np.ones(a.nrows)


class TestCompatKey:
    def test_equal_requests_share_a_key(self, a, b):
        k1 = compat_key("cg", a, b)
        k2 = compat_key("cg", a, b.copy())
        assert k1 is not None
        assert k1 == k2
        assert hash(k1) == hash(k2)

    def test_registry_agreement(self, a, b):
        # cg is the one method with a block path; the key goes to every
        # method that takes x0 and does not run over the simulated
        # communicator -- the warm-startable set.
        assert batched_methods() == ["cg"]
        assert warmstartable_methods() == sorted(
            name
            for name in available_methods()
            if method_entry(name).supports_x0
            and not method_entry(name).distributed
        )
        for name in available_methods():
            keyed = compat_key(name, a, b) is not None
            assert keyed == (name in warmstartable_methods()), name
        assert compat_key("vr", a, b) is not None

    def test_non_coalescable_method(self, a, b):
        assert compat_key("cg3", a, b) is None
        assert compat_key("dist-cg", a, b) is None
        assert compat_key("no-such-method", a, b) is None

    def test_different_methods_differ(self, a, b):
        assert compat_key("cg", a, b) != compat_key("vr", a, b)

    def test_different_operators_differ(self, b):
        small = poisson2d(6)
        other = poisson1d(36)
        assert compat_key("cg", small, b) != compat_key("cg", other, b)

    def test_identical_content_same_key(self, b):
        # Fingerprints are content-based: two separately-built but
        # numerically identical matrices coalesce.
        assert compat_key("cg", poisson2d(6), b) == compat_key(
            "cg", poisson2d(6), b
        )

    def test_tolerance_class_separates(self, a, b):
        loose = StoppingCriterion(rtol=1e-4)
        tight = StoppingCriterion(rtol=1e-12)
        assert compat_key("cg", a, b, loose) != compat_key("cg", a, b, tight)
        # stop=None means the default criterion -- same class as an
        # explicitly-passed default.
        assert compat_key("cg", a, b, None) == compat_key(
            "cg", a, b, StoppingCriterion()
        )

    def test_bad_rhs_never_coalesces(self, a, b):
        assert compat_key("cg", a, b.astype(np.complex128)) is None
        assert compat_key("cg", a, b.reshape(-1, 1)) is None
        assert compat_key("cg", a, np.array([])) is None

    @pytest.mark.parametrize("option", sorted(UNBATCHABLE_OPTIONS))
    def test_unbatchable_options(self, a, b, option):
        assert compat_key("cg", a, b, None, {option: object()}) is None

    def test_batchable_options_key_by_value(self, a, b):
        assert compat_key("vr", a, b, None, {"k": 2}) != compat_key(
            "vr", a, b, None, {"k": 3}
        )
        assert compat_key("vr", a, b, None, {"k": 2}) == compat_key(
            "vr", a, b, None, {"k": 2}
        )

    def test_unhashable_option_value_falls_back(self, a, b):
        assert compat_key("cg", a, b, None, {"weird": [1, 2]}) is None

    def test_unfingerprintable_operator_falls_back(self, b):
        class Opaque:
            shape = (36, 36)

            def matvec(self, x):  # pragma: no cover - never applied here
                return x

        assert compat_key("cg", Opaque(), b) is None

    def test_non_criterion_stop_falls_back(self, a, b):
        assert compat_key("cg", a, b, stop=object()) is None


class TestPlanBatches:
    def test_groups_by_key_preserving_arrival(self):
        items = [("a", 1), ("b", 2), ("a", 3), ("b", 4), ("a", 5)]
        plan = plan_batches(items, key=lambda t: t[0], max_width=16)
        assert plan == [
            [("a", 1), ("a", 3), ("a", 5)],
            [("b", 2), ("b", 4)],
        ]

    def test_chunks_at_max_width(self):
        items = [("k", i) for i in range(7)]
        plan = plan_batches(items, key=lambda t: t[0], max_width=3)
        assert [len(g) for g in plan] == [3, 3, 1]
        assert [x for g in plan for x in g] == items

    def test_none_keys_become_singletons(self):
        items = ["x", "y", "z"]
        plan = plan_batches(items, key=lambda _: None, max_width=16)
        assert plan == [["x"], ["y"], ["z"]]

    def test_mixed(self):
        items = [("k", 0), (None, 1), ("k", 2)]
        plan = plan_batches(items, key=lambda t: t[0], max_width=16)
        assert plan == [[("k", 0), ("k", 2)], [(None, 1)]]

    def test_width_one_is_sequential(self):
        items = [("k", i) for i in range(4)]
        plan = plan_batches(items, key=lambda t: t[0], max_width=1)
        assert plan == [[item] for item in items]

    def test_deterministic(self):
        items = [(f"k{i % 3}", i) for i in range(20)]
        plans = [
            plan_batches(items, key=lambda t: t[0], max_width=4)
            for _ in range(5)
        ]
        assert all(p == plans[0] for p in plans)

    def test_empty(self):
        assert plan_batches([], key=lambda t: t, max_width=4) == []

    def test_width_validation(self):
        with pytest.raises(ValueError, match="max_width"):
            plan_batches([1], key=lambda t: t, max_width=0)
