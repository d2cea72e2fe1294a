import pytest

from sublap import DomainError
from sublap.extrapolation import geometric_limit, limit_table
from sublap.montecarlo import MCEstimate

RADII = [0.4, 0.2, 0.1]


class TestGeometricLimit:
    def test_exact_power_law(self):
        values = [1.0 + 0.5 * x**2 for x in RADII]
        result = geometric_limit(RADII, values)
        assert not result.fallback
        assert result.rate == pytest.approx(2.0, rel=1e-12)
        assert result.limit == pytest.approx(1.0, rel=1e-12)

    def test_significant_differences_fit(self):
        values = [1.0 - 0.2 * x**2 for x in RADII]  # differences 0.024, 0.006
        result = geometric_limit(RADII, values, [0.001] * 3)
        assert not result.fallback and result.limit == pytest.approx(1.0, rel=1e-12)

    def test_noise_level_difference_falls_back(self):
        # the first difference is real, the second 2.3 sigma of noise: a rate
        # fitted to it (q = 0.38) would put the limit 0.05 off
        values, stderrs = [0.9739, 0.9937, 1.0089], [0.0047] * 3
        result = geometric_limit(RADII, values, stderrs)
        assert result.fallback and result.rate is None
        assert result.limit == 1.0089 and result.stderr == 0.0047

    @pytest.mark.parametrize("xs", [[0.4], [0.4, 0.2], [0.8, 0.4, 0.2, 0.1]])
    def test_other_counts_fall_back_to_finest(self, xs):
        values = [1.0 + 0.5 * x**2 for x in xs]
        result = geometric_limit(xs, values, [0.001] * len(xs))
        assert result.fallback and result.rate is None
        assert result.limit == values[-1] and result.stderr == 0.001

    @pytest.mark.parametrize("xs", [[], [0.2, 0.4], [0.4, 0.2, 0.2], [0.4, 0.2, 0.0]])
    def test_radii_must_decrease(self, xs):
        with pytest.raises(DomainError, match="strictly decreasing"):
            geometric_limit(xs, [1.0] * len(xs))

    def test_three_samples_must_be_geometric(self):
        with pytest.raises(DomainError, match="geometrically spaced"):
            geometric_limit([0.4, 0.3, 0.1], [1.0, 1.0, 1.0])


class TestLimitTable:
    def test_limit_is_the_extrapolation(self):
        ests = [MCEstimate(mean=1.0 + 0.5 * x**2, stderr=1e-4, samples=1, seed=0)
                for x in RADII]
        table = limit_table(RADII, ests, 1.0)
        assert table.radii == tuple(RADII) and table.estimates == tuple(ests)
        assert table.target == 1.0
        assert not table.extrapolation.fallback
        assert table.limit == table.extrapolation.limit == pytest.approx(1.0, rel=1e-9)

