import pytest

from hctrial import binary_two_arm_size, normal_two_arm_size


def test_normal_size_for_a_0_4_sd_effect():
    # 2 * ((z_0.975 + z_0.80) / 0.4)^2 = 98.1, rounded up
    assert normal_two_arm_size(0.4) == 99


def test_binary_size_for_0_3_against_0_5():
    # (z_0.975 + z_0.80)^2 * (0.21 + 0.25) / 0.2^2 = 90.3, rounded up
    assert binary_two_arm_size(0.3, 0.5) == 91


def test_nonpositive_effect_rejected():
    with pytest.raises(ValueError, match="effect must be positive"):
        normal_two_arm_size(0.0)


@pytest.mark.parametrize("p_control, p_treatment", [(0.0, 0.5), (0.3, 1.0)])
def test_proportion_outside_unit_interval_rejected(p_control, p_treatment):
    with pytest.raises(ValueError, match="must lie in"):
        binary_two_arm_size(p_control, p_treatment)


def test_equal_proportions_rejected():
    with pytest.raises(ValueError, match="must differ"):
        binary_two_arm_size(0.4, 0.4)
