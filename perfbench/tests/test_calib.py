"""The calibration that turns wall seconds into reference seconds."""

import calib


def test_scale_is_one_at_reference_speed():
    assert calib.scale(calib.REFERENCE_S, calib.REFERENCE_S) == 1.0
    # a machine running at half speed doubles the calibration and halves
    # the factor applied to an operation's wall time
    assert calib.scale(2 * calib.REFERENCE_S, 2 * calib.REFERENCE_S) == 0.5
    assert calib.scale(calib.REFERENCE_S, 3 * calib.REFERENCE_S) == 0.5


def test_calibration_takes_time():
    assert 0.0 < calib.calibrate() < 100 * calib.REFERENCE_S
