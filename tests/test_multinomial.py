import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probtree import DistributionError, Multinomial, Variable
from probtree.multinomial import histograms_from_json, packed_histograms
from probtree.plcdf import ColumnError

COLOR = Variable("color", "symbolic", ("Blue", "Green", "Red"))
COIN = Variable("coin", "symbolic", ("heads", "tails"))


class TestConstruction:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(DistributionError):
            Multinomial(COIN, [0.6, 0.6])

    def test_length_must_match_domain(self):
        with pytest.raises(DistributionError):
            Multinomial(COLOR, [0.5, 0.5])

    def test_negative_rejected(self):
        with pytest.raises(DistributionError):
            Multinomial(COIN, [1.5, -0.5])

    def test_value_outside_unit_interval_rejected(self):
        with pytest.raises(DistributionError):
            Multinomial(COLOR, [0.6, 0.6, -0.2])

    def test_nan_rejected(self):
        with pytest.raises(DistributionError):
            Multinomial(COLOR, [np.nan, 0.5, 0.5])

    def test_fit_from_counts(self):
        m = Multinomial.fit(COIN, [3, 1])
        assert np.allclose(m.p, [0.75, 0.25])

    def test_fit_all_zero_counts(self):
        with pytest.raises(DistributionError):
            Multinomial.fit(COIN, [0, 0])


class TestEntropy:
    def test_uniform_is_one(self):
        m = Multinomial(COLOR, [1 / 3, 1 / 3, 1 / 3])
        assert m.entropy_rel() == pytest.approx(1.0)

    def test_degenerate_is_zero(self):
        assert Multinomial(COIN, [1.0, 0.0]).entropy_rel() == 0.0

    def test_three_quarters(self):
        # -(0.75 log2 0.75 + 0.25 log2 0.25)
        m = Multinomial(COIN, [0.75, 0.25])
        assert m.entropy_rel() == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_single_value_domain(self):
        one = Variable("k", "symbolic", ("only",))
        assert Multinomial(one, [1.0]).entropy_rel() == 0.0

    @given(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_bounded_unit_interval(self, raw):
        var = Variable("v", "symbolic", tuple(f"c{i}" for i in range(len(raw))))
        m = Multinomial.fit(var, raw)
        assert 0.0 <= m.entropy_rel() <= 1.0 + 1e-12


class TestCondition:
    def test_renormalizes(self):
        m = Multinomial(COLOR, [0.5, 0.3, 0.2])
        c = m.condition({1, 2})
        assert np.allclose(c.p, [0.0, 0.6, 0.4])

    def test_zero_mass_event(self):
        m = Multinomial(COLOR, [1.0, 0.0, 0.0])
        with pytest.raises(DistributionError):
            m.condition({1})

    def test_full_domain_identity(self):
        m = Multinomial(COLOR, [0.5, 0.3, 0.2])
        assert np.array_equal(m.condition({0, 1, 2}).p, m.p)


class TestQueries:
    def test_event_probability(self):
        m = Multinomial(COLOR, [0.5, 0.3, 0.2])
        assert m.event_probability({0, 2}) == pytest.approx(0.7)
        assert m.event_probability(set()) == 0.0

    def test_argmax(self):
        assert Multinomial(COLOR, [0.2, 0.5, 0.3]).argmax() == 1

    def test_argmax_tie_lowest_index(self):
        assert Multinomial(COLOR, [0.4, 0.4, 0.2]).argmax() == 0


class TestSample:
    def test_frequencies(self):
        m = Multinomial(COLOR, [0.5, 0.3, 0.2])
        rng = np.random.default_rng(0)
        draws = m.sample(rng, 100_000).astype(int)
        freq = np.bincount(draws, minlength=3) / len(draws)
        for k in range(3):
            sd = np.sqrt(m.p[k] * (1 - m.p[k]) / len(draws))
            assert abs(freq[k] - m.p[k]) < 3 * sd + 1e-9

    def test_zero_probability_never_drawn(self):
        m = Multinomial(COLOR, [0.0, 1.0, 0.0])
        rng = np.random.default_rng(1)
        assert np.all(m.sample(rng, 1000) == 1)


class TestJson:
    def test_round_trip(self):
        m = Multinomial(COLOR, [0.5, 0.3, 0.2])
        back = Multinomial.from_json(COLOR, m.to_json())
        assert back == m

    def test_encoding_shape(self):
        obj = Multinomial(COIN, [0.75, 0.25]).to_json()
        assert obj == {"domain": ["heads", "tails"], "p": [0.75, 0.25]}

    @pytest.mark.parametrize("change, rule", [
        ({"p": [0.5, 0.5]}, "domain size"),
        ({"p": [0.6, 0.3, 0.2]}, "sum to 1"),
        ({"p": [0.5, "x", 0.5]}, "domain size"),
        ({"domain": ["Blue"]}, "domain mismatch"),
        ({"domain": "BGR"}, "domain mismatch"),
    ])
    def test_column_names_the_first_bad_entry(self, change, rule):
        good = Multinomial(COLOR, [0.5, 0.3, 0.2]).to_json()
        bad = {**good, **change}
        with pytest.raises(ColumnError, match=rule) as info:
            histograms_from_json(COLOR, [good, bad, bad])
        assert info.value.entry == 1

    def test_column_rows_are_read_only_views(self):
        rows = [[0.5, 0.3, 0.2], [0.0, 0.0, 1.0]]
        table = histograms_from_json(COLOR, [{"domain": list(COLOR.domain), "p": p}
                                             for p in rows])
        assert table.tolist() == rows
        hists = packed_histograms(COLOR, table)
        assert hists == [Multinomial(COLOR, p) for p in rows]
        for a in (table, hists[1].p):
            with pytest.raises(ValueError):
                a[0] = 1.0
