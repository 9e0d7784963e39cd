import math

import pytest

import sparse_isac as si

C = si.SPEED_OF_LIGHT


def make_params(fc=24e9):
    return si.OfdmParams(
        n_subcarriers=64, n_symbols=4, subcarrier_spacing_hz=120e3, carrier_freq_hz=fc
    )


class TestDelayDoppler:
    def test_microsecond_delay(self):
        t = si.Target(distance_m=149.896, amplitude=1.0)
        tau, _ = si.delay_doppler(t, make_params())
        assert tau == pytest.approx(1.0e-6, rel=2e-5)
        assert tau == 2 * 149.896 / C  # exact formula

    def test_static_target_no_doppler(self):
        t = si.Target(distance_m=100.0, velocity_mps=0.0, amplitude=1.0)
        _, fd = si.delay_doppler(t, make_params())
        assert fd == 0.0

    def test_doppler_at_24ghz(self):
        # direct kinematics evaluation: 2 * 10 * 24e9 / c
        t = si.Target(distance_m=100.0, velocity_mps=10.0, amplitude=1.0)
        _, fd = si.delay_doppler(t, make_params())
        assert fd == pytest.approx(1601.10765695113, abs=1e-8)
        assert fd == 2 * 10.0 * 24e9 / C

    def test_linear_in_distance_and_velocity(self):
        p = make_params()
        t1 = si.Target(distance_m=50.0, velocity_mps=3.0, amplitude=1.0)
        t2 = si.Target(distance_m=100.0, velocity_mps=6.0, amplitude=1.0)
        tau1, fd1 = si.delay_doppler(t1, p)
        tau2, fd2 = si.delay_doppler(t2, p)
        assert tau2 == pytest.approx(2 * tau1, rel=1e-14)
        assert fd2 == pytest.approx(2 * fd1, rel=1e-14)


class TestRadarEquation:
    def budget(self):
        # 0.1 W, 20 dB gains, 24 GHz
        return si.LinkBudget.for_carrier(24e9, tx_power_w=0.1, tx_gain=100.0, rx_gain=100.0)

    def test_regression_constant(self):
        # frozen from an independent one-line evaluation of the formula
        t = si.Target(distance_m=100.0, rcs_m2=1.0)
        a = si.amplitude_from_radar_equation(t, self.budget())
        assert a == pytest.approx(8.867366630295223e-07, rel=1e-12)
        lam = C / 24e9
        direct = math.sqrt(1.0 * lam**2 * 100 * 100 * 0.1 / ((4 * math.pi) ** 3 * 100.0**4))
        assert a == pytest.approx(direct, rel=1e-14)

    def test_fourth_power_range_law(self):
        lb = self.budget()
        near = si.amplitude_from_radar_equation(si.Target(distance_m=100.0, rcs_m2=1.0), lb)
        far = si.amplitude_from_radar_equation(si.Target(distance_m=200.0, rcs_m2=1.0), lb)
        assert near**2 / far**2 == pytest.approx(16.0, rel=1e-12)

    def test_zero_rcs(self):
        a = si.amplitude_from_radar_equation(si.Target(distance_m=10.0, rcs_m2=0.0), self.budget())
        assert a == 0.0

    def test_power_homogeneity(self):
        t = si.Target(distance_m=100.0, rcs_m2=2.0)
        base = si.amplitude_from_radar_equation(t, self.budget())
        boosted = si.LinkBudget.for_carrier(24e9, tx_power_w=0.4, tx_gain=100.0, rx_gain=100.0)
        assert si.amplitude_from_radar_equation(t, boosted) == pytest.approx(
            2.0 * base, rel=1e-12
        )

    def test_explicit_amplitude_target_rejected(self):
        t = si.Target(distance_m=10.0, amplitude=1.0)
        with pytest.raises(ValueError):
            si.amplitude_from_radar_equation(t, self.budget())


class TestTargetValidation:
    def test_requires_exactly_one_strength_spec(self):
        with pytest.raises(ValueError):
            si.Target(distance_m=10.0)
        with pytest.raises(ValueError):
            si.Target(distance_m=10.0, rcs_m2=1.0, amplitude=1.0)

    def test_positive_distance(self):
        with pytest.raises(ValueError):
            si.Target(distance_m=0.0, amplitude=1.0)

    def test_phase_range(self):
        with pytest.raises(ValueError):
            si.Target(distance_m=10.0, amplitude=1.0, phase_rad=7.0)
        si.Target(distance_m=10.0, amplitude=1.0, phase_rad=3.1)  # ok


    @pytest.mark.parametrize(
        "kwargs, error",
        [
            (dict(distance_m=math.nan), ValueError),
            (dict(distance_m=math.inf), ValueError),
            (dict(distance_m=True), TypeError),
            (dict(distance_m="10"), TypeError),
            (dict(velocity_mps=math.nan), ValueError),
            (dict(velocity_mps=-math.inf), ValueError),
            (dict(velocity_mps="a"), TypeError),
            (dict(amplitude=math.nan), ValueError),
            (dict(amplitude=math.inf), ValueError),
            (dict(phase_rad=math.nan), ValueError),
            (dict(amplitude=None, rcs_m2=math.inf), ValueError),
            (dict(amplitude=None, rcs_m2=False), TypeError),
        ],
    )
    def test_non_finite_or_wrong_type_rejected(self, kwargs, error):
        base = dict(distance_m=10.0, amplitude=1.0)
        base.update(kwargs)
        field = next(k for k, v in kwargs.items() if v is not None)
        with pytest.raises(error, match=f"^{field}: "):
            si.Target(**base)


class TestLinkBudget:
    @pytest.mark.parametrize(
        "kwargs, error",
        [
            (dict(tx_power_w=math.nan), ValueError),
            (dict(tx_power_w=math.inf), ValueError),
            (dict(tx_gain=-math.inf), ValueError),
            (dict(rx_gain=0.0), ValueError),
            (dict(tx_gain=True), TypeError),
            (dict(rx_gain="100"), TypeError),
        ],
    )
    def test_invalid_link_rejected(self, kwargs, error):
        base = dict(tx_power_w=0.1, tx_gain=100.0, rx_gain=100.0)
        base.update(kwargs)
        with pytest.raises(error, match=f"^{next(iter(kwargs))}: "):
            si.LinkBudget.for_carrier(24e9, **base)


class TestScene:
    @pytest.mark.parametrize(
        "kwargs, error",
        [
            (dict(snr_db=math.nan), ValueError),
            (dict(snr_db=-math.inf), ValueError),
            (dict(snr_db=1e6), ValueError),  # 10**(snr/10) overflows a float
            (dict(snr_db=-1e6), ValueError),  # noise variance overflows
            (dict(snr_db=True), TypeError),
            (dict(snr_db="0"), TypeError),
            (dict(noise_variance_w=math.nan), ValueError),
            (dict(noise_variance_w=math.inf), ValueError),
            (dict(noise_variance_w="1"), TypeError),
        ],
    )
    def test_invalid_noise_rejected(self, kwargs, error):
        t = si.Target(distance_m=10.0, amplitude=1.0)
        with pytest.raises(error, match=f"^{next(iter(kwargs))}: "):
            si.Scene(targets=(t,), **kwargs)

    def test_noise_specs_mutually_exclusive(self):
        t = si.Target(distance_m=10.0, amplitude=1.0)
        with pytest.raises(ValueError):
            si.Scene(targets=(t,), snr_db=0.0, noise_variance_w=1.0)

    def test_needs_targets(self):
        with pytest.raises(ValueError):
            si.Scene(targets=())

    def test_snr_sets_variance_from_reference_target(self):
        t = si.Target(distance_m=10.0, amplitude=2.0)
        scene = si.Scene(targets=(t,), snr_db=-10.0)
        assert scene.noise_variance() == pytest.approx(4.0 * 10.0)

    def test_infinite_snr_is_noiseless(self):
        t = si.Target(distance_m=10.0, amplitude=1.0)
        assert si.Scene(targets=(t,), snr_db=math.inf).noise_variance() == 0.0

    @pytest.mark.parametrize(
        "amplitude, snr_db",
        [(1e-200, 0.0), (1e-100, 1500.0), (1e-160, 50.0)],  # the variance underflows to 0
    )
    def test_finite_snr_with_underflowing_variance_rejected(self, amplitude, snr_db):
        t = si.Target(distance_m=100.0, amplitude=amplitude)
        with pytest.raises(ValueError, match="^snr_db: .* out of range$"):
            si.Scene(targets=(t,), snr_db=snr_db)
        assert si.Scene(targets=(t,), snr_db=math.inf).noise_variance() == 0.0

    def test_rcs_target_needs_link(self):
        t = si.Target(distance_m=10.0, rcs_m2=1.0)
        with pytest.raises(ValueError):
            si.Scene(targets=(t,))
        lb = si.LinkBudget.for_carrier(24e9, 0.1, 100.0, 100.0)
        scene = si.Scene(targets=(t,), link=lb)
        assert scene.amplitude_of(t) > 0

    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize(
        "distance_m, rcs_m2",
        [(1e100, 1.0), (1e-100, 1.0)],  # d**4 overflows, or underflows to 0
    )
    def test_rcs_amplitude_overflow_rejected_naming_the_target(self, position, distance_m, rcs_m2):
        lb = si.LinkBudget.for_carrier(24e9, 0.1, 100.0, 100.0)
        targets = [si.Target(distance_m=10.0, amplitude=1.0)]
        targets.insert(position, si.Target(distance_m=distance_m, rcs_m2=rcs_m2))
        for noise in (dict(snr_db=0.0), dict(noise_variance_w=1.0), {}):
            with pytest.raises(ValueError, match=rf"^targets\[{position}\]: distance_m: "):
                si.Scene(targets=tuple(targets), link=lb, **noise)

    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize(
        "distance_m, rcs_m2",
        [(10.0, 0.0), (1e10, 1e-300)],  # zero RCS, or the echo power underflows to 0
    )
    def test_zero_rcs_amplitude_rejected_naming_the_target(self, position, distance_m, rcs_m2):
        lb = si.LinkBudget.for_carrier(24e9, 0.1, 100.0, 100.0)
        target = si.Target(distance_m=distance_m, rcs_m2=rcs_m2)
        assert si.amplitude_from_radar_equation(target, lb) == 0.0
        targets = [si.Target(distance_m=10.0, amplitude=1.0)]
        targets.insert(position, target)
        for noise in (dict(snr_db=0.0), dict(noise_variance_w=1.0), {}):
            with pytest.raises(ValueError, match=rf"^targets\[{position}\]: rcs_m2: .* is zero$"):
                si.Scene(targets=tuple(targets), link=lb, **noise)
