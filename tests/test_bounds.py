import math
import sys

import numpy as np
import pytest

from maxnorm_lowrank.bounds import (
    analytical_rank_bound,
    stage_two_onset,
    three_stage_profile,
    ut_bound,
    ut_tighter_bound,
)
from maxnorm_lowrank.compress import rank_formula


class TestAnalyticalRankBound:
    def test_one_dimensional_example(self):
        # m=1, C=1, M=1, eps=0.01: e^2 ~ 7.39 beats ln(100) ~ 4.61
        b = analytical_rank_bound(1, 1.0, 1.0, 0.01)
        assert b.rho_star == 8
        assert b.rank == 8

    def test_two_dimensional_example(self):
        b = analytical_rank_bound(2, 1.0, 4.0, 0.1)
        assert b.rho_star == 60
        assert b.rank == math.comb(61, 2) == 1830

    def test_monotone_in_eps(self):
        prev = 0
        for eps in (0.5, 0.1, 0.01, 0.001):
            rank = analytical_rank_bound(3, 2.0, 1.0, eps).rank
            assert rank >= prev
            prev = rank

    def test_chain_estimate_dominates(self):
        for m, M in [(2, 1.0), (5, 0.5), (10, 2.0)]:
            b = analytical_rank_bound(m, 1.0, M, 0.1)
            assert b.rank <= b.chain_estimate

    def test_huge_rank_flagged(self):
        b = analytical_rank_bound(400, 1.0, 3.0, 0.1)
        assert b.float_overflow
        assert b.rank > 10**300  # exact integer survives

    def test_validation(self):
        with pytest.raises(ValueError):
            analytical_rank_bound(0, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            analytical_rank_bound(1, 1.0, 1.0, 1.5)


class TestUtBound:
    def test_hand_value(self):
        # Cu = Cv = 0, eps -> 1, n1 = n2 = 1: ceil(8 ln(3) * 9) = 80
        assert ut_bound(1, 1, 1.0, 0.0, 0.0) == 80

    def test_monotonicity(self):
        base = ut_bound(100, 100, 0.5, 1.0, 1.0)
        assert ut_bound(200, 100, 0.5, 1.0, 1.0) >= base
        assert ut_bound(100, 100, 0.5, 2.0, 1.0) >= base
        assert ut_bound(100, 100, 0.5, 1.0, 2.0) >= base
        assert ut_bound(100, 100, 0.25, 1.0, 1.0) >= base

    def test_exceeds_analytical_with_plugged_constants(self):
        # lower-bound constants Cu > C^2 m^m, Cv > m^m at m=2, C=1, small M
        m, C, M, eps = 2, 1.0, 0.05, 0.5
        assert M < (m**2 - math.e) / math.e**3
        analytical = analytical_rank_bound(m, C, M, eps).rank
        for n in (10, 10**3, 10**6, 10**9, 10**12):
            assert ut_bound(n, n, eps, C**2 * m**m, m**m) > analytical


class TestUtTighterBound:
    def test_frozen_oracle_value(self):
        # oracle: ceil(900 * ln(3e10) * e^2) computed independently
        expected = math.ceil(9.0 * math.log(3.0 * 10**10) / 0.01 * math.exp(2.0))
        value, overflow = ut_tighter_bound(10**5, 10**5, 0.1, 1.0, 1.0, 1)
        assert value == expected == 160432
        assert not overflow

    def test_m_zero_formal_limit(self):
        value, _ = ut_tighter_bound(10**5, 10**5, 0.1, 1.0, 1.0, 0)
        assert value == rank_formula(0.1, 10**5, 10**5)

    def test_always_exceeds_rank_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            eps = float(rng.uniform(0.05, 0.95))
            n = int(rng.integers(2, 10**7))
            m = int(rng.integers(1, 12))
            C = float(rng.uniform(1.0, 5.0))
            M = float(rng.uniform(0.1, 3.0))
            value, _ = ut_tighter_bound(n, n, eps, C, M, m)
            assert value > rank_formula(eps, n, n)

    def test_overflow_path_is_exact_integer(self):
        value, overflow = ut_tighter_bound(10**5, 10**5, 0.1, 1.0, 2.0, 400)
        assert overflow
        assert value > 10**300
        # digit-count sanity: log10(900 ln(3e10) e^2000)
        expected_log10 = (
            math.log10(9.0 * math.log(3.0 * 10**10) / 0.01) + 2000 / math.log(10)
        )
        assert len(str(value)) == math.floor(expected_log10) + 1

    def test_overflow_path_needs_no_mpmath(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "mpmath", None)
        value, overflow = ut_tighter_bound(10**5, 10**5, 0.1, 1.0, 2.0, 400)
        assert overflow
        log10_value = math.log10(9.0 * math.log(3.0 * 10**10) / 0.01) + 2000 / math.log(10)
        assert len(str(value)) == math.floor(log10_value) + 1
        # leading digits: 10**frac(log10 value), good to ~1e-13 in float
        lead = 10 ** (log10_value - math.floor(log10_value))
        assert abs(int(str(value)[:10]) - lead * 1e9) <= 1


class TestThreeStageProfile:
    def test_logarithmic_point(self):
        profile = three_stage_profile(0.1, [10**5])
        point = profile.points[0]
        assert point.r_n == 21713
        assert point.stage == "logarithmic"

    def test_linear_stage_for_small_n(self):
        profile = three_stage_profile(0.1, [10, 100])
        assert all(p.stage == "linear" and p.r_n == p.n for p in profile.points)

    def test_constant_stage_with_beta2(self):
        profile = three_stage_profile(0.1, [10**6], beta2=50)
        assert profile.points[0].stage == "constant"
        assert profile.points[0].r_n == 50

    def test_onset_matches_scan_oracle(self):
        # oracle: direct integer scan around the crossing
        onset = stage_two_onset(0.1)
        for n in range(onset - 3, onset):
            assert rank_formula(0.1, n, n) >= n
        assert rank_formula(0.1, onset, onset) < onset
        assert onset == 18695

    def test_onset_other_eps(self):
        onset = stage_two_onset(0.5)
        assert rank_formula(0.5, onset, onset) < onset
        assert rank_formula(0.5, onset - 1, onset - 1) >= onset - 1
