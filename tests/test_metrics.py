"""Metric aggregation tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crhop.engine import RunRecord
from crhop.errors import InvalidComparisonError, InvalidParameterError, UndefinedPprError
from crhop.metrics import attr, compare, ppr, sign_test_less, summarize


def record(ttrs, packets=0, rendezvous=0, censored=None, handshake="3wh", max_slots=1000):
    n = len(ttrs)
    return RunRecord(
        node_count=n,
        handshake=handshake,
        max_slots=max_slots,
        ttr_half_slots=tuple(ttrs),
        censored=tuple(censored) if censored else (False,) * n,
        packets=packets,
        rendezvous=rendezvous,
    )


class TestAttr:
    def test_single_run_node_mean(self):
        assert attr([record([8, 12])]) == 5.0

    def test_outer_mean_over_runs(self):
        assert attr([record([10, 10]), record([20, 20])]) == 7.5

    def test_single_node_zero(self):
        assert attr([record([0])]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            attr([])

    @given(st.lists(st.lists(st.integers(0, 10_000), min_size=3, max_size=3),
                    min_size=1, max_size=10))
    def test_permutation_invariant(self, ttr_runs):
        records = [record(t) for t in ttr_runs]
        shuffled_runs = [record(list(reversed(t))) for t in reversed(ttr_runs)]
        assert attr(records) == pytest.approx(attr(shuffled_runs))


class TestPpr:
    def test_ratio(self):
        assert ppr([record([2], packets=30, rendezvous=10)]) == 3.0

    def test_perfect_three_way_run(self):
        assert ppr([record([2, 2], packets=3, rendezvous=1)]) == 3.0

    def test_undefined_when_no_rendezvous(self):
        with pytest.raises(UndefinedPprError):
            ppr([record([2], packets=7, rendezvous=0)])

    def test_zero_rendezvous_runs_excluded(self):
        value = ppr([
            record([2], packets=6, rendezvous=2),
            record([2], packets=9, rendezvous=0),
        ])
        assert value == 3.0

    def test_floor_is_handshake_size(self):
        # every packet belonging to a handshake means ppr >= packets per
        # handshake; lone broadcasts and repeats only push it up
        assert ppr([record([2], packets=2 * 5, rendezvous=5, handshake="2wh")]) == 2.0
        assert ppr([record([2], packets=2 * 5 + 3, rendezvous=5, handshake="2wh")]) > 2.0


class TestSignTest:
    def test_no_discordant_pairs(self):
        assert sign_test_less(0, 0) == 1.0

    def test_clean_sweep(self):
        assert sign_test_less(10, 0) == pytest.approx(2.0**-10)

    def test_balanced(self):
        assert sign_test_less(5, 5) == pytest.approx(0.623, abs=0.001)


def result_from_attrs(attrs, seeds=None, scenario=None):
    # single-node records whose half-slot ttrs reproduce the requested slot means
    records = [record([int(round(a * 2))], packets=3, rendezvous=1) for a in attrs]
    seeds = seeds if seeds is not None else list(range(len(attrs)))
    return summarize(scenario or {"protocol": "mdmca"}, seeds, records)


class TestCompare:
    def test_identical_inputs(self):
        a = result_from_attrs([5, 7, 9, 11])
        b = result_from_attrs([5, 7, 9, 11])
        summary = compare(a, b)
        assert summary.improvement_pct == 0.0
        assert summary.attr_p_value == 1.0
        assert summary.attr_ties == 4

    def test_constructed_half(self):
        base = [10, 14, 22, 30, 42, 50, 66, 70, 82, 90]
        a = result_from_attrs([x / 2 for x in base])
        b = result_from_attrs(base)
        summary = compare(a, b)
        assert summary.improvement_pct == pytest.approx(50.0)
        assert summary.attr_p_value < 0.01

    def test_zero_attr_baseline_has_no_ratio(self):
        # Every single-node cell has ATTR 0: the ratio is undefined, the sign test is not.
        a = summarize({}, [0, 1], [record([0]), record([0])])
        b = summarize({}, [0, 1], [record([0]), record([0])])
        summary = compare(a, b)
        assert summary.attr_ratio is None and summary.improvement_pct is None
        assert summary.attr_p_value == 1.0 and summary.attr_ties == 2
        assert summary.ppr_ratio is None

    def test_mismatched_seeds_rejected(self):
        a = result_from_attrs([1, 2, 3], seeds=[1, 2, 3])
        b = result_from_attrs([1, 2, 3], seeds=[1, 2, 4])
        with pytest.raises(InvalidComparisonError):
            compare(a, b)

    def test_ppr_comparison_present(self):
        a = summarize({}, [0, 1], [record([2], 6, 2), record([2], 8, 2)])
        b = summarize({}, [0, 1], [record([2], 10, 2), record([2], 12, 2)])
        summary = compare(a, b)
        assert summary.ppr_ratio == pytest.approx((3 + 4) / 2 / ((5 + 6) / 2))
        assert summary.ppr_p_value == pytest.approx(0.25)


class TestSummarize:
    def test_dispersion_and_censoring(self):
        records = [
            record([4, 8], packets=6, rendezvous=2),
            record([8, 16], packets=4, rendezvous=0, censored=[False, True]),
        ]
        res = summarize({"protocol": "x"}, [0, 1], records)
        assert res.attr_slots == pytest.approx((3.0 + 6.0) / 2)
        assert res.attr_min == 3.0 and res.attr_max == 6.0
        assert res.attr_sd == pytest.approx(1.5)
        assert res.censored_nodes == 1
        assert res.undefined_ppr_runs == 1
        assert res.ppr == 3.0

    def test_all_runs_undefined_ppr(self):
        res = summarize({}, [0], [record([2], packets=5, rendezvous=0)])
        assert res.ppr is None
        assert res.undefined_ppr_runs == 1

    def test_no_records_rejected(self):
        with pytest.raises(InvalidParameterError, match="at least one run record"):
            summarize({}, [], [])
