import re

import numpy as np
import pytest

from swipt_relay import verify
from swipt_relay.params import (
    MAX_N,
    ConfigError,
    FadingParams,
    Fixed,
    SweepSpec,
    SystemParams,
    dbm_to_linear,
    validate,
)

REF_CONFIG = {
    "p_s_dbm": 40.0,
    "sigma_r_sq_dbm": -20.0,
    "sigma_p_sq_dbm": -20.0,
    "sigma_d_sq_dbm": -17.0,
    "rate_bps_hz": 3.0,
}


class TestDbmConversion:
    def test_zero_dbm_is_one_mw(self):
        assert dbm_to_linear(0.0) == 1.0

    def test_minus_twenty_dbm(self):
        assert dbm_to_linear(-20.0) == pytest.approx(0.01, rel=1e-12)

    def test_minus_seventeen_dbm(self):
        # 10^(-1.7) by direct arithmetic
        assert dbm_to_linear(-17.0) == pytest.approx(10.0 ** -1.7, rel=1e-15)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ConfigError):
            dbm_to_linear(bad)

    def test_round_trip_identity(self):
        # dbm_to_linear inverts x -> 10*log10(x) over twelve decades
        for x in np.logspace(-6, 6, 200):
            assert dbm_to_linear(10.0 * np.log10(x)) == pytest.approx(x, rel=1e-12)


def _literal(values):
    """10.0 ** (x / 10.0) value by value: the conversion's defining expression."""
    return [10.0 ** (x / 10.0) for x in values]


class TestDbmArrays:
    def test_equals_the_literal_power_bit_for_bit(self):
        # np.power(10.0, x / 10.0) differs from these in the last bit on about
        # one value in twenty
        x = np.concatenate([np.random.default_rng(25).uniform(-3000.0, 3000.0, 100_000),
                            np.arange(-3000.0, 3000.5, 0.5), [-0.0, 5e-324, -5e-324]])
        assert dbm_to_linear(x).tolist() == _literal(x.tolist())

    def test_equals_the_literal_power_on_every_battery_draw(self, monkeypatch):
        seen = []

        def recording(x):
            linear = dbm_to_linear(x)
            seen.append((np.ravel(x).tolist(), np.ravel(linear).tolist()))
            return linear

        monkeypatch.setattr(verify, "dbm_to_linear", recording)
        assert all(r.passed for r in verify.run_all())
        dbm = [v for x, _ in seen for v in x]
        assert len(dbm) >= 84_000  # four columns of 10,000 + 10,000 + 1,000 draws
        assert [v for _, linear in seen for v in linear] == _literal(dbm)

    @pytest.mark.parametrize("shape", [(0,), (1,), (7,), (3, 4), (2, 1, 5)])
    def test_keeps_the_shape(self, shape):
        x = np.linspace(-50.0, 50.0, int(np.prod(shape))).reshape(shape)
        linear = dbm_to_linear(x)
        assert isinstance(linear, np.ndarray) and linear.shape == shape
        assert linear.ravel().tolist() == _literal(x.ravel().tolist())

    @pytest.mark.parametrize("x", [0.0, -17.0, 40, 3000.0, np.float64(-12.3)])
    def test_a_number_gives_a_float(self, x):
        linear = dbm_to_linear(x)
        assert type(linear) is float
        assert linear == 10.0 ** (float(x) / 10.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                     3000.0000000000005, -3000.0000000000005, 1e308])
    @pytest.mark.parametrize("at", [0, 57, 99])
    def test_one_bad_element_raises(self, bad, at):
        x = np.linspace(-3000.0, 3000.0, 100)
        x[at] = bad
        for shaped in (x, x.reshape(10, 10)):
            with pytest.raises(ConfigError, match=re.escape(repr(bad))):
                dbm_to_linear(shaped)


class TestSnrThreshold:
    def test_rate_three(self):
        assert validate({**REF_CONFIG, "rate_bps_hz": 3.0}).gamma_0 == 7.0

    def test_rate_one(self):
        assert validate({**REF_CONFIG, "rate_bps_hz": 1.0}).gamma_0 == 1.0

    def test_rate_zero_rejected(self):
        with pytest.raises(ConfigError):
            validate({**REF_CONFIG, "rate_bps_hz": 0.0})


class TestValidate:
    def test_reference_config(self):
        p = validate(REF_CONFIG)
        assert p.p_s == pytest.approx(10000.0, rel=1e-12)
        assert p.gamma_0 == 7.0
        assert p.epsilon == 1.0
        assert p.sigma_d_eff == p.sigma_d_sq

    def test_epsilon_zero_rejected(self):
        cfg = dict(REF_CONFIG, epsilon=0.0)
        with pytest.raises(ConfigError, match="epsilon"):
            validate(cfg)

    def test_epsilon_above_one_rejected(self):
        with pytest.raises(ConfigError, match="epsilon"):
            validate(dict(REF_CONFIG, epsilon=1.5))

    def test_epsilon_folds_into_destination_noise(self):
        p = validate(dict(REF_CONFIG, epsilon=0.25))
        assert p.sigma_d_eff == pytest.approx(4.0 * p.sigma_d_sq, rel=1e-15)

    def test_missing_field_names_the_field(self):
        cfg = dict(REF_CONFIG)
        del cfg["sigma_d_sq_dbm"]
        with pytest.raises(ConfigError, match="sigma_d_sq"):
            validate(cfg)

    def test_missing_rate(self):
        cfg = dict(REF_CONFIG)
        del cfg["rate_bps_hz"]
        with pytest.raises(ConfigError, match="rate_bps_hz"):
            validate(cfg)

    def test_gamma_0_always_consistent_with_rate(self):
        p = validate(dict(REF_CONFIG, rate_bps_hz=2.0))
        assert p.gamma_0 == 2.0 ** 2 - 1


class TestSystemParamsInvariants:
    def test_nonpositive_power_rejected(self):
        with pytest.raises(ConfigError, match="p_s"):
            SystemParams(p_s=0.0, sigma_r_sq=0.01, sigma_p_sq=0.01,
                         sigma_d_sq=0.02, rate=3.0)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ConfigError, match="sigma_r_sq"):
            SystemParams(p_s=1.0, sigma_r_sq=-0.01, sigma_p_sq=0.01,
                         sigma_d_sq=0.02, rate=3.0)

    @pytest.mark.parametrize("rate", [float("inf"), float("nan")])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ConfigError, match="rate"):
            SystemParams(p_s=1.0, sigma_r_sq=0.01, sigma_p_sq=0.01,
                         sigma_d_sq=0.02, rate=rate)

    @pytest.mark.parametrize("rate", [1024.0, 1e-17])
    def test_rate_whose_gamma_0_is_not_positive_finite_rejected(self, rate):
        # 2.0 ** 1024 overflows, and 2.0 ** 1e-17 - 1 is 0.0
        with pytest.raises(ConfigError, match="rate"):
            SystemParams(p_s=1.0, sigma_r_sq=0.01, sigma_p_sq=0.01,
                         sigma_d_sq=0.02, rate=rate)

    def test_immutable(self):
        p = validate(REF_CONFIG)
        with pytest.raises(Exception):
            p.p_s = 1.0


class TestSweepPoints:
    PARAMS = validate(REF_CONFIG)
    FADING = FadingParams(lambda_h=1.5, lambda_g=2.5)

    def spec(self, variable, values, n=10, seed=1):
        return SweepSpec(variable=variable, values=values, params=self.PARAMS, fading=self.FADING,
                         policies=(Fixed(0.4),), n=n, seed=seed)

    def by_hand(self, variable, v):
        """The point of sweep value v, built from the constructors and 10 ** (v / 10)."""
        p, f = self.PARAMS, self.FADING
        p_s = 10.0 ** (v / 10.0) if variable == "p_s_dbm" else p.p_s
        return (SystemParams(p_s=p_s, sigma_r_sq=p.sigma_r_sq, sigma_p_sq=p.sigma_p_sq,
                             sigma_d_sq=p.sigma_d_sq, rate=p.rate, epsilon=p.epsilon),
                FadingParams(lambda_h=float(v) if variable == "lambda_h" else f.lambda_h,
                             lambda_g=float(v) if variable == "lambda_g" else f.lambda_g))

    @pytest.mark.parametrize("variable,values", [
        ("p_s_dbm", (-20, 17.3, 40.0, 55)),
        ("lambda_h", (0.1, 1, 9.75)),
        ("lambda_g", (1e-3, 2, 1e3)),
    ])
    def test_each_value_gives_its_hand_built_pair(self, variable, values):
        points = self.spec(variable, values).points
        assert len(points) == len(values)
        for got, want in zip(points, (self.by_hand(variable, v) for v in values)):
            for got_part, want_part in zip(got, want):
                assert type(got_part) is type(want_part)
                fields = list(vars(want_part))
                # bit for bit: .hex() tells every float apart, -0.0 from 0.0 too
                assert [float(getattr(got_part, k)).hex() for k in fields] == \
                    [float(getattr(want_part, k)).hex() for k in fields]
                assert [type(getattr(got_part, k)) for k in fields] == [float] * len(fields)

    @pytest.mark.parametrize("variable,values,message", [
        ("lambda_g", (0.0, 1.0), "lambda_g must be positive and finite, got 0.0"),
        ("lambda_h", (0.5, float("inf")), "lambda_h must be positive and finite, got inf"),
        ("p_s_dbm", (40.0, 3000.5), re.escape("dBm value out of range [-3000, 3000]: 3000.5")),
        ("p_s_dbm", (-3001.0, 40.0), re.escape("dBm value out of range [-3000, 3000]: -3001.0")),
    ], ids=["lambda_g-0", "lambda_h-inf", "p_s_dbm-above", "p_s_dbm-below"])
    def test_a_bad_value_is_refused_when_the_spec_is_built(self, variable, values, message):
        with pytest.raises(ConfigError, match=message):
            self.spec(variable, values)

    @pytest.mark.parametrize("counts,message", [
        ({"n": 0}, "n must be an integer in [1, 9007199254740992], got 0"),
        ({"n": 2.5}, "n must be an integer in [1, 9007199254740992], got 2.5"),
        ({"n": True}, "n must be an integer in [1, 9007199254740992], got True"),
        ({"n": 2**53 + 1}, "n must be an integer in [1, 9007199254740992], got 9007199254740993"),
        ({"seed": -1}, "seed must be an integer in [0, inf], got -1"),
        ({"seed": 1.5}, "seed must be an integer in [0, inf], got 1.5"),
    ], ids=["n-0", "n-fraction", "n-bool", "n-above", "seed-negative", "seed-fraction"])
    def test_a_bad_n_or_seed_is_refused_before_the_points(self, monkeypatch, counts, message):
        monkeypatch.setattr(SweepSpec, "points", property(lambda _: pytest.fail("points built")))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            self.spec("p_s_dbm", (40.0,), **counts)

    @pytest.mark.parametrize("n,seed", [(1, 0), (MAX_N, 2**64), (np.int64(1000), np.uint32(7))])
    def test_an_integer_n_and_seed_in_range_are_accepted(self, n, seed):
        spec = self.spec("p_s_dbm", (40.0,), n=n, seed=seed)
        assert (spec.n, spec.seed) == (n, seed)
